// Package store is the persistent, content-addressed result store of
// the serving tier. It maps an analysis key — the hash of an item's
// sources plus every verdict-affecting option (core.AnalysisKey) — to
// a schema-versioned report.Record on disk, with an in-memory LRU
// front for hot keys.
//
// Records live in one append-only log, records.log, of checksummed
// frames (see appendFrame), indexed in memory by key: Open walks the
// frames once, a miss is a map lookup, and a disk hit is one
// positioned read.
//
// Guarantees:
//
//   - Durable writes: Put appends a frame and returns once an fsync
//     covers it. Concurrent Puts share fsyncs (the log's group
//     commit), and a failed write or fsync is cut back, so the log on
//     disk is whole frames followed by at most one torn tail.
//   - Self-verifying records: every frame carries its key, its payload
//     length and a CRC-32 over key and payload, so torn or bit-rotted
//     content is detected on read, not trusted.
//   - Corruption tolerance: a frame that fails its checksum or does
//     not decode is counted, dropped from the index, copied into the
//     quarantine/ subdirectory with a reason suffix (corrupt artifacts
//     stay inspectable post-mortem), and reported as a miss; the
//     caller simply re-analyzes and appends it again. Its neighbours
//     still serve. Corruption is never an error surfaced to the
//     serving path.
//   - Startup recovery: Open cuts a torn tail left by a crash in place
//     and, unless NoRecoveryScan, verifies every frame before the
//     store serves its first read.
//   - Determinism: records are canonical JSON (report.Encode), so a
//     re-analysis of the same input writes byte-identical content.
//
// All file I/O goes through an injectable fsio.FS, so tests simulate
// short writes and fsync failures at exact protocol steps
// (fsio.Faulty), the kill-restart chaos harness widens crash windows
// (fsio.Chaos), and the crash model enumerates what a crash keeps
// (fsio.Mem).
package store

import (
	"bytes"
	"container/list"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/soteria-analysis/soteria/internal/fsio"
	"github.com/soteria-analysis/soteria/internal/report"
)

// Options configures a store.
type Options struct {
	// MaxMemEntries bounds the in-memory LRU front (0 = DefaultMemEntries).
	// Evicting from the front never loses data — the record stays on disk.
	MaxMemEntries int
	// FS overrides the filesystem (nil = fsio.OS{}). Tests inject
	// fsio.Faulty; the chaos harness injects fsio.Chaos.
	FS fsio.FS
	// NoRecoveryScan skips Open's per-frame checksum and decode check:
	// Open still walks the frames to index them and cuts a torn tail,
	// and reads verify every frame regardless, so skipping the scan
	// trades startup cost for lazier quarantine.
	NoRecoveryScan bool
}

// DefaultMemEntries is the LRU front capacity when Options doesn't set one.
const DefaultMemEntries = 256

// LogName is the record log's file name under the store root.
const LogName = "records.log"

// QuarantineDir is the subdirectory (under the store root) that
// receives copies of corrupt frames. Files in it are named
// <key>.json.<reason>, reason one of "torn", "badsum", "decode"; bytes
// whose key cannot be read are named offset-<n>.json.torn after their
// offset in the log.
const QuarantineDir = "quarantine"

// frameMark opens every frame. encoding/json escapes every control
// character, so the byte never occurs inside a record's payload, and
// Open can find the next frame past damaged bytes by searching for it.
const frameMark = 0x1e

// maxHeader bounds a frame header: the mark, a key of up to 128 hex
// digits, a payload length of up to 10 digits, 8 hex digits of CRC and
// three separators.
const maxHeader = 1 + 128 + 1 + 10 + 1 + 8 + 1

// maxPayload bounds a frame's payload length.
const maxPayload = 1 << 30

// Stats are the store's monotonic counters, for /metrics and tests.
type Stats struct {
	// Hits = MemHits + DiskHits; Misses counts absent or quarantined keys.
	Hits, MemHits, DiskHits, Misses int64
	// Puts counts records appended; Syncs the fsyncs that made them
	// durable (fewer than Puts when concurrent Puts share one);
	// Evictions counts LRU-front drops (the records remain on disk);
	// Corrupt counts quarantined frames — from reads and from Open's
	// recovery walk alike.
	Puts, Syncs, Evictions, Corrupt int64
}

// RecoveryStats describe what Open's crash-recovery walk found.
type RecoveryStats struct {
	// TruncatedBytes is the torn tail cut off the log.
	TruncatedBytes int
	// Quarantined counts frames and damaged spans the walk moved out of
	// the index into quarantine/.
	Quarantined int
	// Scanned counts frames the walk verified.
	Scanned int
}

// Store is a disk-backed record store with an LRU front. All methods
// are safe for concurrent use. A nil *Store is inert: Get misses, Put
// drops, Stats is zero — so an optional store can be threaded through
// unconditionally.
type Store struct {
	dir string
	fs  fsio.FS
	log *fsio.Log
	max int

	mu    sync.Mutex // guards mem, lru and index
	mem   map[string]*list.Element
	lru   *list.List // of *memEntry, front = most recently used
	index map[string]frameLoc
	hits  struct{ mem, disk atomic.Int64 }

	misses, puts, evictions, corrupt atomic.Int64

	recovery RecoveryStats
}

type memEntry struct {
	key string
	rec *report.Record
}

// frameLoc places a frame in the log.
type frameLoc struct {
	off int64
	n   int
}

// Open creates or reopens a store rooted at dir: the directory and its
// record log are created as needed, the log's frames are indexed, a
// torn tail is cut, and — unless opts.NoRecoveryScan — every frame is
// verified and corrupt ones are quarantined before the store serves
// its first read. Open takes no lock: a second Store over the same
// directory may read it, but only one may Put.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = fsio.OS{}
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	max := opts.MaxMemEntries
	if max <= 0 {
		max = DefaultMemEntries
	}
	s := &Store{
		dir:   dir,
		fs:    fsys,
		max:   max,
		mem:   map[string]*list.Element{},
		lru:   list.New(),
		index: map[string]frameLoc{},
	}
	var bad []badSpan
	log, cut, err := fsio.OpenLog(fsys, filepath.Join(dir, LogName), func(data []byte) int {
		var valid int
		valid, bad = s.walk(data, !opts.NoRecoveryScan)
		return valid
	})
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.log = log
	s.recovery.TruncatedBytes = cut
	s.recovery.Quarantined = len(bad)
	for _, b := range bad {
		s.quarantine(b.name, b.reason, b.data)
	}
	return s, nil
}

// badSpan is a stretch of the log the recovery walk will not index.
type badSpan struct {
	name, reason string
	data         []byte
}

// walk indexes the frames of data and returns the length of its sound
// part, up to the torn tail. Bytes that do not frame but are followed
// by a sound frame are damage, not a tear: they are skipped and
// returned for quarantine, as are frames that fail verification when
// scan is set.
func (s *Store) walk(data []byte, scan bool) (int, []badSpan) {
	var bad []badSpan
	for off := 0; off < len(data); {
		fr, ok := parseFrame(data[off:])
		if !ok {
			next := resync(data, off+1)
			if next < 0 {
				return off, bad
			}
			bad = append(bad, badSpan{name: fmt.Sprintf("offset-%d", off), reason: "torn", data: data[off:next]})
			off = next
			continue
		}
		frameBytes := data[off : off+fr.size]
		if scan {
			s.recovery.Scanned++
			if reason := fr.verifyCanonical(); reason != "" {
				bad = append(bad, badSpan{name: fr.key, reason: reason, data: frameBytes})
				off += fr.size
				continue
			}
		}
		s.index[fr.key] = frameLoc{off: int64(off), n: fr.size}
		off += fr.size
	}
	return len(data), bad
}

// resync returns the offset of the first frame at or after from that
// parses and passes its checksum, or -1.
func resync(data []byte, from int) int {
	for from < len(data) {
		i := bytes.IndexByte(data[from:], frameMark)
		if i < 0 {
			return -1
		}
		from += i
		if fr, ok := parseFrame(data[from:]); ok && fr.sumOK() {
			return from
		}
		from++
	}
	return -1
}

// Recovery reports what the crash-recovery walk of Open found.
func (s *Store) Recovery() RecoveryStats {
	if s == nil {
		return RecoveryStats{}
	}
	return s.recovery
}

// validKey reports whether key is a well-formed content address
// (lowercase hex, 16–128 chars), so a key arriving over HTTP cannot
// name a quarantine path outside the store.
func validKey(key string) bool {
	if len(key) < 16 || len(key) > 128 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// quarantine copies corrupt bytes to quarantine/<name>.json.<reason>
// for post-mortem inspection, best-effort: the frame is already out of
// the index, so a failed copy loses only the evidence. Counted in
// Stats.Corrupt either way.
func (s *Store) quarantine(name, reason string, data []byte) {
	qdir := filepath.Join(s.dir, QuarantineDir)
	if s.fs.MkdirAll(qdir, 0o755) == nil {
		_ = fsio.WriteFileAtomic(s.fs, filepath.Join(qdir, name+".json."+reason), ".tmp-*", data)
	}
	s.corrupt.Add(1)
}

// appendFrame appends the frame of a record to dst:
//
//	\x1e<key> <payload-len> <crc32-ieee-hex8>\n<payload>
//
// where the CRC covers the key and the payload, the canonical
// report.Encode bytes (one JSON line).
func appendFrame(dst []byte, key string, payload []byte) []byte {
	dst = appendHeader(dst, key, len(payload), frameSum(key, payload))
	return append(dst, payload...)
}

func appendHeader(dst []byte, key string, n int, sum uint32) []byte {
	dst = append(dst, frameMark)
	dst = append(dst, key...)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(n), 10)
	return fmt.Appendf(dst, " %08x\n", sum)
}

func frameSum(key string, payload []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE([]byte(key)), crc32.IEEETable, payload)
}

// frame is a parsed frame; payload aliases the parsed bytes.
type frame struct {
	key     string
	sum     uint32
	payload []byte
	size    int // header and payload
}

// parseFrame parses the frame at the start of b: a canonical header
// (the one appendHeader writes for its fields) and a payload that b
// holds whole. It does not check the CRC.
func parseFrame(b []byte) (frame, bool) {
	if len(b) == 0 || b[0] != frameMark {
		return frame{}, false
	}
	nl := bytes.IndexByte(b[:min(len(b), maxHeader)], '\n')
	if nl < 0 {
		return frame{}, false
	}
	fields := bytes.Split(b[1:nl], []byte{' '})
	if len(fields) != 3 || len(fields[2]) != 8 {
		return frame{}, false
	}
	key := string(fields[0])
	n, err := strconv.Atoi(string(fields[1]))
	if err != nil || !validKey(key) || n < 0 || n > maxPayload {
		return frame{}, false
	}
	sum, err := strconv.ParseUint(string(fields[2]), 16, 32)
	if err != nil || !bytes.Equal(b[:nl+1], appendHeader(nil, key, n, uint32(sum))) {
		return frame{}, false
	}
	end := nl + 1 + n
	if end > len(b) {
		return frame{}, false
	}
	return frame{key: key, sum: uint32(sum), payload: b[nl+1 : end], size: end}, true
}

func (f frame) sumOK() bool { return frameSum(f.key, f.payload) == f.sum }

// verify checks the CRC and decodes the payload. On failure it returns
// the quarantine reason: "badsum" for a checksum mismatch, "decode"
// for content report.Decode rejects (including a wrong schema).
func (f frame) verify() (*report.Record, string) {
	if !f.sumOK() {
		return nil, "badsum"
	}
	rec, err := report.Decode(f.payload)
	if err != nil {
		return nil, "decode"
	}
	return rec, ""
}

// verifyCanonical is verify for the recovery scan, which also requires
// the payload to be the record's canonical encoding, so the store
// serves exactly the bytes a re-analysis would write.
func (f frame) verifyCanonical() string {
	rec, reason := f.verify()
	if reason != "" {
		return reason
	}
	if data, err := report.Encode(rec); err != nil || !bytes.Equal(data, f.payload) {
		return "decode"
	}
	return ""
}

// Get returns the record stored under key. Missing, invalid, and
// corrupt entries are all misses.
func (s *Store) Get(key string) (*report.Record, bool) {
	if s == nil || !validKey(key) {
		s.countMiss()
		return nil, false
	}
	if rec, ok := s.Peek(key); ok {
		return rec, true
	}
	s.mu.Lock()
	at, ok := s.index[key]
	s.mu.Unlock()
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	buf := make([]byte, at.n)
	if err := s.log.ReadAt(buf, at.off); err != nil {
		s.misses.Add(1)
		return nil, false
	}
	var rec *report.Record
	reason := "torn"
	if fr, ok := parseFrame(buf); ok && fr.key == key && fr.size == at.n {
		rec, reason = fr.verify()
	}
	if reason != "" {
		// A record we cannot trust must not shadow a re-analysis — and
		// must stay inspectable.
		s.mu.Lock()
		if s.index[key] == at {
			delete(s.index, key)
		}
		s.mu.Unlock()
		s.quarantine(key, reason, buf)
		s.misses.Add(1)
		return nil, false
	}
	s.promote(key, rec)
	s.hits.disk.Add(1)
	return rec, true
}

// Peek returns the record under key if the memory front holds it,
// without reading the disk or counting a miss: a re-check for a key
// whose miss the caller already counted.
func (s *Store) Peek(key string) (*report.Record, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	el, ok := s.mem[key]
	var rec *report.Record
	if ok {
		s.lru.MoveToFront(el)
		rec = el.Value.(*memEntry).rec
	}
	s.mu.Unlock()
	if ok {
		s.hits.mem.Add(1)
	}
	return rec, ok
}

// Stage puts a complete record into the memory front, where Get sees
// it, ahead of the Put that writes it to disk. A crash before that Put
// loses the staged record; callers that answer from it must be able to
// re-derive it (soteriad re-runs the job from its journal).
func (s *Store) Stage(key string, rec *report.Record) {
	if s == nil || !validKey(key) {
		return
	}
	s.promote(key, rec)
}

// Put stores a record under key: its frame is appended to the log and
// Put returns once an fsync covers it, then the record is promoted
// into the LRU front. A key the log already indexes appends nothing.
func (s *Store) Put(key string, rec *report.Record) error {
	if s == nil {
		return nil
	}
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	s.mu.Lock()
	_, indexed := s.index[key]
	s.mu.Unlock()
	if indexed {
		s.promote(key, rec)
		return nil
	}
	payload, err := report.Encode(rec)
	if err != nil {
		return err
	}
	frame := appendFrame(make([]byte, 0, maxHeader+len(payload)), key, payload)
	off, seq, err := s.log.Append(frame)
	if err == nil {
		err = s.log.SyncTo(seq)
	}
	if err != nil {
		return fmt.Errorf("store: writing %s: %w", key, err)
	}
	s.mu.Lock()
	s.index[key] = frameLoc{off: off, n: len(frame)}
	s.mu.Unlock()
	s.promote(key, rec)
	s.puts.Add(1)
	return nil
}

// promote inserts or refreshes key at the front of the LRU, evicting
// past the capacity bound.
func (s *Store) promote(key string, rec *report.Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.mem[key]; ok {
		el.Value.(*memEntry).rec = rec
		s.lru.MoveToFront(el)
		return
	}
	s.mem[key] = s.lru.PushFront(&memEntry{key: key, rec: rec})
	for s.lru.Len() > s.max {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		delete(s.mem, oldest.Value.(*memEntry).key)
		s.evictions.Add(1)
	}
}

func (s *Store) countMiss() {
	if s != nil {
		s.misses.Add(1)
	}
}

// Stats reports the store's counters.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	mem, disk := s.hits.mem.Load(), s.hits.disk.Load()
	return Stats{
		Hits:      mem + disk,
		MemHits:   mem,
		DiskHits:  disk,
		Misses:    s.misses.Load(),
		Puts:      s.puts.Load(),
		Syncs:     s.log.Syncs(),
		Evictions: s.evictions.Load(),
		Corrupt:   s.corrupt.Load(),
	}
}

// Len reports the LRU-front entry count and the number of records the
// log indexes.
func (s *Store) Len() (mem, disk int) {
	if s == nil {
		return 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mem), len(s.index)
}

// Keys lists the keys the log indexes, sorted.
func (s *Store) Keys() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	s.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// Close fsyncs and closes the record log; the store serves nothing
// from disk afterwards.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	return s.log.Close()
}

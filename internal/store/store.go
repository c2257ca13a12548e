// Package store is the persistent, content-addressed result store of
// the serving tier. It maps an analysis key — the hash of an item's
// sources plus every verdict-affecting option (core.AnalysisKey) — to
// a schema-versioned report.Record on disk, with an in-memory LRU
// front for hot keys.
//
// Guarantees:
//
//   - Crash-consistent writes: a record is written to a temp file,
//     fsynced, renamed into place, and the directory is fsynced — so
//     readers (including readers in other processes) never observe a
//     partial record, and neither a process crash nor a power cut
//     mid-write can replace a good record with a torn one.
//   - Self-verifying records: every record carries a length-prefixed
//     checksum header ("soteria-record 2 <len> <crc32>"), so torn or
//     bit-rotted content is detected on read, not trusted.
//   - Corruption tolerance: a record that fails its checksum or does
//     not decode is counted, quarantined into the quarantine/
//     subdirectory with a reason suffix (never deleted — corrupt
//     artifacts stay inspectable post-mortem), and reported as a miss;
//     the caller simply re-analyzes and overwrites it. Corruption is
//     never an error surfaced to the serving path.
//   - Startup recovery: Open sweeps temp files left by a crashed
//     writer and scans every record, quarantining torn or truncated
//     ones before they can be served.
//   - Determinism: records are canonical JSON (report.Encode), so a
//     re-analysis of the same input rewrites byte-identical content.
//
// All file I/O goes through an injectable fsio.FS, so tests simulate
// short writes, fsync failures, and rename crashes at exact protocol
// steps (fsio.Faulty), and the kill-restart chaos harness widens crash
// windows (fsio.Chaos).
package store

import (
	"bytes"
	"container/list"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"strconv"
	"strings"
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
	// NoRecoveryScan skips Open's full-directory integrity scan (temp
	// files are still swept). Reads verify checksums regardless, so
	// skipping the scan trades startup cost for lazier quarantine.
	NoRecoveryScan bool
}

// DefaultMemEntries is the LRU front capacity when Options doesn't set one.
const DefaultMemEntries = 256

// QuarantineDir is the subdirectory (under the store root) that
// receives corrupt records. Files in it are named
// <key>.json.<reason>, reason one of "torn", "badsum", "decode".
const QuarantineDir = "quarantine"

// recordMagic opens every checksummed record file; the header line is
// "soteria-record 2 <payload-len> <crc32-ieee-hex>\n".
const recordMagic = "soteria-record 2 "

// Stats are the store's monotonic counters, for /metrics and tests.
type Stats struct {
	// Hits = MemHits + DiskHits; Misses counts absent or quarantined keys.
	Hits, MemHits, DiskHits, Misses int64
	// Puts counts successful writes; Evictions counts LRU-front drops
	// (the records remain on disk); Corrupt counts quarantined records
	// — from reads and from Open's recovery scan alike.
	Puts, Evictions, Corrupt int64
}

// RecoveryStats describe what Open's crash-recovery pass found.
type RecoveryStats struct {
	// TempsSwept counts orphan .tmp-* files removed.
	TempsSwept int
	// Quarantined counts records the startup scan moved to quarantine/.
	Quarantined int
	// Scanned counts records the startup scan verified.
	Scanned int
}

// Store is a disk-backed record store with an LRU front. All methods
// are safe for concurrent use. A nil *Store is inert: Get misses, Put
// drops, Stats is zero — so an optional store can be threaded through
// unconditionally.
type Store struct {
	dir string
	fs  fsio.FS
	max int

	mu   sync.Mutex
	mem  map[string]*list.Element
	lru  *list.List // of *memEntry, front = most recently used
	hits struct{ mem, disk atomic.Int64 }

	misses, puts, evictions, corrupt atomic.Int64

	recovery RecoveryStats
}

type memEntry struct {
	key string
	rec *report.Record
}

// Open creates or reopens a store rooted at dir: the directory (and
// its quarantine/ subdirectory) is created as needed, temp files left
// by a crashed writer are swept, and — unless opts.NoRecoveryScan —
// every record is verified and torn ones are quarantined before the
// store serves its first read.
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
	if err := fsys.MkdirAll(filepath.Join(dir, QuarantineDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	max := opts.MaxMemEntries
	if max <= 0 {
		max = DefaultMemEntries
	}
	s := &Store{
		dir: dir,
		fs:  fsys,
		max: max,
		mem: map[string]*list.Element{},
		lru: list.New(),
	}
	if err := s.recover(!opts.NoRecoveryScan); err != nil {
		return nil, err
	}
	return s, nil
}

// recover is Open's crash-recovery pass: remove orphan temp files,
// and (when scan is set) verify every record, quarantining failures.
func (s *Store) recover(scan bool) error {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: recovery scan: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case e.IsDir():
			// quarantine/ and unrelated subdirectories are not records.
		case strings.HasPrefix(name, ".tmp-"):
			if s.fs.Remove(filepath.Join(s.dir, name)) == nil {
				s.recovery.TempsSwept++
			}
		case scan && strings.HasSuffix(name, ".json"):
			key := strings.TrimSuffix(name, ".json")
			if !validKey(key) {
				continue
			}
			s.recovery.Scanned++
			data, err := s.fs.ReadFile(s.path(key))
			if err != nil {
				continue
			}
			if _, reason, err := decodeRecord(data); err != nil {
				s.quarantine(key, reason)
				s.recovery.Quarantined++
			}
		}
	}
	return nil
}

// Recovery reports what the crash-recovery pass of Open found.
func (s *Store) Recovery() RecoveryStats {
	if s == nil {
		return RecoveryStats{}
	}
	return s.recovery
}

// validKey reports whether key is a well-formed content address
// (lowercase hex, 16–128 chars), so a key arriving over HTTP cannot
// traverse paths before it reaches the disk.
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

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+".json")
}

// quarantine moves the record under key aside into quarantine/
// <key>.json.<reason>, preserving the corrupt bytes for post-mortem
// inspection; if the move itself fails the file is removed so it can
// never shadow a re-analysis. Counted in Stats.Corrupt either way.
func (s *Store) quarantine(key, reason string) {
	dst := filepath.Join(s.dir, QuarantineDir, key+".json."+reason)
	if err := s.fs.Rename(s.path(key), dst); err != nil {
		// Best-effort: a concurrent Put may already have replaced the
		// file, or the quarantine dir may be unwritable.
		s.fs.Remove(s.path(key))
	}
	s.corrupt.Add(1)
}

// encodeRecord frames a canonical payload with the length-prefixed
// checksum header.
func encodeRecord(payload []byte) []byte {
	header := fmt.Sprintf("%s%d %08x\n", recordMagic, len(payload), crc32.ChecksumIEEE(payload))
	out := make([]byte, 0, len(header)+len(payload))
	out = append(out, header...)
	return append(out, payload...)
}

// decodeRecord verifies and decodes a record file. On failure it
// returns the quarantine reason: "torn" for a file without a valid
// header or with a length mismatch, "badsum" for a checksum mismatch,
// "decode" for content that fails report.Decode (including wrong
// schema).
func decodeRecord(data []byte) (*report.Record, string, error) {
	if !bytes.HasPrefix(data, []byte(recordMagic)) {
		return nil, "torn", fmt.Errorf("store: record has no header")
	}
	rest := data[len(recordMagic):]
	nl := bytes.IndexByte(rest, '\n')
	if nl < 0 {
		return nil, "torn", fmt.Errorf("store: record header has no terminator")
	}
	fields := strings.Fields(string(rest[:nl]))
	if len(fields) != 2 {
		return nil, "torn", fmt.Errorf("store: malformed record header")
	}
	length, err := strconv.Atoi(fields[0])
	if err != nil {
		return nil, "torn", fmt.Errorf("store: malformed record length: %w", err)
	}
	sum, err := strconv.ParseUint(fields[1], 16, 32)
	if err != nil {
		return nil, "torn", fmt.Errorf("store: malformed record checksum: %w", err)
	}
	payload := rest[nl+1:]
	if len(payload) != length {
		return nil, "torn", fmt.Errorf("store: record payload is %d bytes, header says %d", len(payload), length)
	}
	if crc32.ChecksumIEEE(payload) != uint32(sum) {
		return nil, "badsum", fmt.Errorf("store: record checksum mismatch")
	}
	rec, err := report.Decode(payload)
	if err != nil {
		return nil, "decode", err
	}
	return rec, "", nil
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

	data, err := s.fs.ReadFile(s.path(key))
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	rec, reason, err := decodeRecord(data)
	if err != nil {
		// Quarantine: a record we cannot trust must not shadow a
		// re-analysis — and must stay inspectable.
		s.quarantine(key, reason)
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

// Put stores a record under key with the full crash-consistency
// protocol: checksummed frame → temp file → fsync → rename → directory
// fsync — then promotion into the LRU front.
func (s *Store) Put(key string, rec *report.Record) error {
	if s == nil {
		return nil
	}
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	payload, err := report.Encode(rec)
	if err != nil {
		return err
	}
	// The temp pattern must keep the ".tmp-" prefix Open's sweep
	// removes. A lost directory entry is re-verified by the next Open's
	// scan, so the best-effort directory fsync cannot fail the Put.
	if err := fsio.WriteFileAtomic(s.fs, s.path(key), ".tmp-*", encodeRecord(payload)); err != nil {
		return fmt.Errorf("store: writing %s: %w", key, err)
	}
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
		Evictions: s.evictions.Load(),
		Corrupt:   s.corrupt.Load(),
	}
}

// Len reports the LRU-front entry count and the number of records on
// disk (the latter by directory scan — diagnostics, not a hot path).
func (s *Store) Len() (mem, disk int) {
	if s == nil {
		return 0, 0
	}
	s.mu.Lock()
	mem = len(s.mem)
	s.mu.Unlock()
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return mem, 0
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			disk++
		}
	}
	return mem, disk
}

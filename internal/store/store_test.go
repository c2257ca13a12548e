package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/soteria-analysis/soteria/internal/fsio"
	"github.com/soteria-analysis/soteria/internal/guard/faultinject"
	"github.com/soteria-analysis/soteria/internal/report"
)

func testRecord(n int) *report.Record {
	return &report.Record{
		Schema: report.Schema,
		Apps:   []string{fmt.Sprintf("app-%d", n)},
		States: n,
	}
}

// key returns a distinct valid content address per index.
func key(n int) string {
	return fmt.Sprintf("%064x", n+1)
}

func open(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestStoreRoundTripAndRestart(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	if err := s.Put(key(1), testRecord(7)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	rec, ok := s.Get(key(1))
	if !ok || rec.States != 7 {
		t.Fatalf("Get after Put = %+v, %v", rec, ok)
	}
	if st := s.Stats(); st.MemHits != 1 || st.Puts != 1 {
		t.Fatalf("stats after warm get: %+v", st)
	}

	// A fresh store over the same directory — a restarted process —
	// serves the same record from disk.
	s2 := open(t, dir, Options{})
	rec, ok = s2.Get(key(1))
	if !ok || rec.States != 7 || rec.Apps[0] != "app-7" {
		t.Fatalf("Get after reopen = %+v, %v", rec, ok)
	}
	if st := s2.Stats(); st.DiskHits != 1 || st.MemHits != 0 {
		t.Fatalf("stats after cold get: %+v", st)
	}
	// Second read is served by the promoted front.
	if _, ok = s2.Get(key(1)); !ok {
		t.Fatalf("promoted Get missed")
	}
	if st := s2.Stats(); st.MemHits != 1 {
		t.Fatalf("stats after promoted get: %+v", st)
	}
	// A Put of a key the log already indexes appends nothing.
	size := len(mustRead(t, logPath(dir)))
	if err := s2.Put(key(1), testRecord(7)); err != nil {
		t.Fatalf("re-Put: %v", err)
	}
	if got := len(mustRead(t, logPath(dir))); got != size {
		t.Fatalf("re-Put of an indexed key appended %d bytes", got-size)
	}
	if st := s2.Stats(); st.Puts != 0 || st.Syncs != 0 {
		t.Fatalf("re-Put of an indexed key counted: %+v", st)
	}
}

func TestStoreMissAndInvalidKeys(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	if _, ok := s.Get(key(9)); ok {
		t.Fatalf("Get of absent key hit")
	}
	for _, bad := range []string{"", "short", "../../etc/passwd", strings.Repeat("Z", 64), key(1) + "/x"} {
		if _, ok := s.Get(bad); ok {
			t.Fatalf("Get(%q) hit", bad)
		}
		if err := s.Put(bad, testRecord(1)); err == nil {
			t.Fatalf("Put(%q) accepted", bad)
		}
	}
	if st := s.Stats(); st.Misses == 0 || st.Hits != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// logPath is the record log of the store at dir.
func logPath(dir string) string { return filepath.Join(dir, LogName) }

// appendRaw appends bytes to the record log behind the store's back.
func appendRaw(t *testing.T, dir string, data []byte) {
	t.Helper()
	f, err := os.OpenFile(logPath(dir), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreCorruptionQuarantine(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	if err := s.Put(key(0), testRecord(0)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Append a frame whose checksum holds but whose payload does not
	// decode, then read it with a cold front (fresh store, no scan):
	// the read must miss, count the corruption, and drop the frame.
	appendRaw(t, dir, appendFrame(nil, key(1), []byte(`{"schema":1,"truncated`)))
	s2 := open(t, dir, Options{NoRecoveryScan: true})
	if _, ok := s2.Get(key(1)); ok {
		t.Fatalf("Get served a corrupt record")
	}
	if st := s2.Stats(); st.Corrupt != 1 || st.Misses != 1 {
		t.Fatalf("stats after corrupt read: %+v", st)
	}
	if _, ok := s2.Get(key(1)); ok {
		t.Fatalf("a quarantined frame is still indexed")
	}
	// The corrupt bytes are preserved for post-mortem inspection, with
	// the failure reason as suffix, and the neighbour still serves.
	moved := filepath.Join(dir, QuarantineDir, key(1)+".json.decode")
	if data, err := os.ReadFile(moved); err != nil || !strings.Contains(string(data), "truncated") {
		t.Fatalf("quarantined bytes not preserved: %q, %v", data, err)
	}
	if rec, ok := s2.Get(key(0)); !ok || rec.States != 0 {
		t.Fatalf("neighbour of a corrupt frame lost: %+v, %v", rec, ok)
	}
	// Wrong schema version is equally untrusted.
	appendRaw(t, dir, appendFrame(nil, key(2), []byte(`{"schema":999}`+"\n")))
	if _, ok := open(t, dir, Options{NoRecoveryScan: true}).Get(key(2)); ok {
		t.Fatalf("Get served a wrong-schema record")
	}
	// The key is re-writable after quarantine.
	if err := s2.Put(key(1), testRecord(2)); err != nil {
		t.Fatalf("Put after quarantine: %v", err)
	}
	if rec, ok := open(t, dir, Options{}).Get(key(1)); !ok || rec.States != 2 {
		t.Fatalf("Get after re-Put = %+v, %v", rec, ok)
	}
}

func TestStoreLRUEviction(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{MaxMemEntries: 2})
	for i := 0; i < 5; i++ {
		if err := s.Put(key(i), testRecord(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	mem, disk := s.Len()
	if mem != 2 || disk != 5 {
		t.Fatalf("Len = (%d, %d), want (2, 5)", mem, disk)
	}
	if st := s.Stats(); st.Evictions != 3 {
		t.Fatalf("evictions = %d, want 3", st.Evictions)
	}
	// Evicted entries are still served — from disk.
	if rec, ok := s.Get(key(0)); !ok || rec.States != 0 {
		t.Fatalf("Get of evicted key = %+v, %v", rec, ok)
	}
	if st := s.Stats(); st.DiskHits != 1 {
		t.Fatalf("stats after evicted get: %+v", st)
	}
}

// TestStoreChecksumDetectsBitRot: one flipped payload byte in the
// middle of the log fails that frame's CRC — found by the read when
// the scan is skipped, and by the scan otherwise — while the frames
// on either side keep serving.
func TestStoreChecksumDetectsBitRot(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	for i := 0; i < 3; i++ {
		if err := s.Put(key(i), testRecord(i)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	data, err := os.ReadFile(logPath(dir))
	if err != nil {
		t.Fatalf("reading log: %v", err)
	}
	at := s.index[key(1)]
	if data[at.off] != frameMark || !strings.HasPrefix(string(data[at.off+1:]), key(1)+" ") {
		t.Fatalf("frame has no header: %q", data[at.off:at.off+32])
	}
	data[at.off+int64(at.n)-10] ^= 0x01
	if err := os.WriteFile(logPath(dir), data, 0o644); err != nil {
		t.Fatalf("writing flipped log: %v", err)
	}
	for _, opts := range []Options{{NoRecoveryScan: true}, {}} {
		s2 := open(t, dir, opts)
		if _, ok := s2.Get(key(1)); ok {
			t.Fatalf("Get served a bit-rotted record (%+v)", opts)
		}
		if st := s2.Stats(); st.Corrupt != 1 {
			t.Fatalf("bit rot not counted (%+v): %+v", opts, st)
		}
		for _, i := range []int{0, 2} {
			if rec, ok := s2.Get(key(i)); !ok || rec.States != i {
				t.Fatalf("neighbour %d of a bit-rotted frame lost (%+v): %+v, %v", i, opts, rec, ok)
			}
		}
	}
	if _, err := os.Stat(filepath.Join(dir, QuarantineDir, key(1)+".json.badsum")); err != nil {
		t.Fatalf("bit-rotted record not quarantined as badsum: %v", err)
	}
}

// TestStoreQuarantinesHeaderlessRecords: record JSON without a frame
// header is unverifiable, even when it decodes. Inside the log it is
// damage, quarantined as torn with or without the scan, and the frames
// around it still serve; a <key>.json file of the old one-file-per-
// record layout is neither read nor deleted.
func TestStoreQuarantinesHeaderlessRecords(t *testing.T) {
	data, err := report.Encode(testRecord(3))
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	dir := t.TempDir()
	s := open(t, dir, Options{})
	if err := s.Put(key(0), testRecord(0)); err != nil {
		t.Fatal(err)
	}
	size := len(mustRead(t, logPath(dir)))
	payload, _ := report.Encode(testRecord(2))
	appendRaw(t, dir, append(append([]byte(nil), data...), appendFrame(nil, key(2), payload)...))
	legacy := filepath.Join(dir, key(4)+".json")
	if err := os.WriteFile(legacy, data, 0o644); err != nil {
		t.Fatalf("writing legacy record: %v", err)
	}

	for _, opts := range []Options{{NoRecoveryScan: true}, {}} {
		s := open(t, dir, opts)
		if rs := s.Recovery(); rs.Quarantined != 1 || rs.TruncatedBytes != 0 {
			t.Fatalf("headerless bytes in the log (%+v): %+v", opts, rs)
		}
		for _, i := range []int{0, 2} {
			if rec, ok := s.Get(key(i)); !ok || rec.States != i {
				t.Fatalf("frame %d next to headerless bytes lost (%+v): %+v, %v", i, opts, rec, ok)
			}
		}
		if _, ok := s.Get(key(4)); ok {
			t.Fatal("Get served a legacy headerless record")
		}
		if got := s.Keys(); len(got) != 2 {
			t.Fatalf("Keys = %v", got)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, QuarantineDir, fmt.Sprintf("offset-%d.json.torn", size))); err != nil {
		t.Fatalf("headerless bytes not quarantined: %v", err)
	}
	if got := mustRead(t, legacy); string(got) != string(data) {
		t.Fatalf("legacy record file touched: %q", got)
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestOpenRecoveryScanQuarantinesTornRecords: a crash leaves a torn
// frame at the tail, which Open cuts in place — the same file, not a
// rewritten copy — while a frame torn in the middle of the log (here,
// its header) is quarantined and its neighbours serve.
func TestOpenRecoveryScanQuarantinesTornRecords(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	for i := 0; i < 3; i++ {
		if err := s.Put(key(i), testRecord(i)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	data := mustRead(t, logPath(dir))
	at := s.index[key(1)]
	data[at.off] = '!'
	payload, _ := report.Encode(testRecord(3))
	torn := appendFrame(nil, key(3), payload)
	torn = torn[:len(torn)-7]
	if err := os.WriteFile(logPath(dir), append(data, torn...), 0o644); err != nil {
		t.Fatalf("tearing log: %v", err)
	}
	before, err := os.Stat(logPath(dir))
	if err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, Options{})
	rs := s2.Recovery()
	if rs.TruncatedBytes != len(torn) || rs.Quarantined != 1 || rs.Scanned != 2 {
		t.Fatalf("recovery stats: %+v", rs)
	}
	if st := s2.Stats(); st.Corrupt != 1 {
		t.Fatalf("scan quarantine not counted: %+v", st)
	}
	after, err := os.Stat(logPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) || after.Size() != int64(len(data)) {
		t.Fatalf("torn tail not cut in place: size %d, want %d; same file %v", after.Size(), len(data), os.SameFile(before, after))
	}
	for _, i := range []int{1, 3} {
		if _, ok := s2.Get(key(i)); ok {
			t.Fatalf("Get served torn record %d after recovery", i)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, QuarantineDir, fmt.Sprintf("offset-%d.json.torn", at.off))); err != nil {
		t.Fatalf("torn record not preserved: %v", err)
	}
	for _, i := range []int{0, 2} {
		if rec, ok := s2.Get(key(i)); !ok || rec.States != i {
			t.Fatalf("healthy record %d lost after recovery: %+v, %v", i, rec, ok)
		}
	}
	// Appends continue from the cut, and a reopen reads them.
	if err := s2.Put(key(3), testRecord(3)); err != nil {
		t.Fatal(err)
	}
	if rec, ok := open(t, dir, Options{}).Get(key(3)); !ok || rec.States != 3 {
		t.Fatalf("record appended after the cut: %+v, %v", rec, ok)
	}
}

// TestPutFaultInjection: a Put whose write or fsync fails reports the
// error, serves nothing, and leaves no partial frame ahead of the next
// good Put — which a reopened store reads back.
func TestPutFaultInjection(t *testing.T) {
	defer faultinject.Reset()
	boom := errors.New("injected disk fault")
	cases := []struct {
		name string
		site string
	}{
		{"short write", faultinject.SiteFSWrite},
		{"fsync failure", faultinject.SiteFSSync},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := open(t, dir, Options{FS: fsio.Faulty{Inner: fsio.OS{}}})
			if err := s.Put(key(7), testRecord(7)); err != nil {
				t.Fatalf("healthy Put: %v", err)
			}
			size := len(mustRead(t, logPath(dir)))
			faultinject.ArmError(tc.site, "", boom)
			err := s.Put(key(8), testRecord(8))
			faultinject.Disarm(tc.site)
			if !errors.Is(err, boom) {
				t.Fatalf("Put under %s = %v, want the injected fault", tc.name, err)
			}
			// The failed Put must not be promoted into the memory front…
			if _, ok := s.Get(key(8)); ok {
				t.Fatalf("failed Put is served")
			}
			// …must not have disturbed the earlier record…
			if rec, ok := s.Get(key(7)); !ok || rec.States != 7 {
				t.Fatalf("earlier record lost: %+v, %v", rec, ok)
			}
			// …and is cut back, so the next good Put follows the last
			// good frame and a reopened store reads it back.
			if got := len(mustRead(t, logPath(dir))); got != size {
				t.Fatalf("failed Put left %d bytes in the log", got-size)
			}
			if err := s.Put(key(9), testRecord(9)); err != nil {
				t.Fatalf("Put after the fault: %v", err)
			}
			s2 := open(t, dir, Options{})
			if _, ok := s2.Get(key(8)); ok {
				t.Fatalf("failed Put visible after reopen")
			}
			if rs := s2.Recovery(); rs.Quarantined != 0 || rs.TruncatedBytes != 0 {
				t.Fatalf("failed Put left damage: %+v", rs)
			}
			if rec, ok := s2.Get(key(9)); !ok || rec.States != 9 {
				t.Fatalf("good Put after the fault lost: %+v, %v", rec, ok)
			}
		})
	}
}

// TestPutSurvivesDirSyncFailure: a Put appends to a log whose
// directory entry Open made durable, so it needs no directory fsync;
// Open, which creates the log, fails if it cannot make it durable.
func TestPutSurvivesDirSyncFailure(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	s := open(t, dir, Options{FS: fsio.Faulty{Inner: fsio.OS{}}})
	faultinject.ArmError(faultinject.SiteFSSyncDir, "", errors.New("dir sync failed"))
	if err := s.Put(key(1), testRecord(1)); err != nil {
		t.Fatalf("Put failed on dir-sync error: %v", err)
	}
	if _, err := Open(t.TempDir(), Options{FS: fsio.Faulty{Inner: fsio.OS{}}}); err == nil {
		t.Fatalf("Open created a log it could not make durable")
	}
	faultinject.Reset()
	if rec, ok := open(t, dir, Options{}).Get(key(1)); !ok || rec.States != 1 {
		t.Fatalf("record lost: %+v, %v", rec, ok)
	}
}

// TestOpenLeavesLegacyFiles: files of the old layout — records and the
// temp files of a crashed writer — are neither read nor deleted; old
// entries are simply re-analyzed.
func TestOpenLeavesLegacyFiles(t *testing.T) {
	dir := t.TempDir()
	legacy := map[string]string{".tmp-crashed": "partial", key(1) + ".json": "soteria-record 2 2 00000000\n{}"}
	for name, data := range legacy {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := open(t, dir, Options{})
	if _, ok := s.Get(key(1)); ok {
		t.Fatal("Get served a legacy record")
	}
	for name, data := range legacy {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || string(got) != data {
			t.Fatalf("legacy file %s changed: %q, %v", name, got, err)
		}
	}
}

func TestStoreConcurrent(t *testing.T) {
	s := open(t, t.TempDir(), Options{MaxMemEntries: 4})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := key(i % 10)
				if i%2 == 0 {
					if err := s.Put(k, testRecord(i%10)); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
				} else if rec, ok := s.Get(k); ok && rec.States != i%10 {
					t.Errorf("Get(%s) = states %d, want %d", k, rec.States, i%10)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := s.Stats(); st.Puts == 0 || st.Syncs > st.Puts {
		t.Fatalf("puts and syncs: %+v", st)
	}
	if got := s.Keys(); len(got) != 5 {
		t.Fatalf("Keys = %d keys, want 5", len(got))
	}
}

func TestNilStoreInert(t *testing.T) {
	var s *Store
	if _, ok := s.Get(key(1)); ok {
		t.Fatalf("nil store hit")
	}
	if err := s.Put(key(1), testRecord(1)); err != nil {
		t.Fatalf("nil store Put: %v", err)
	}
	if st := s.Stats(); st.Puts != 0 {
		t.Fatalf("nil store stats: %+v", st)
	}
}

// FuzzStoreOpen feeds arbitrary bytes to Open as the record log: Open
// never panics, every key it indexes reads back a record that
// re-encodes to its frame's payload, and a second Open of what the
// first left indexes the same keys.
func FuzzStoreOpen(f *testing.F) {
	var log []byte
	for i := 0; i < 3; i++ {
		payload, err := report.Encode(testRecord(i))
		if err != nil {
			f.Fatal(err)
		}
		log = appendFrame(log, key(i), payload)
	}
	f.Add([]byte{})
	f.Add(log)
	f.Add(log[:len(log)-5])
	f.Add(append(append([]byte("garbage"), log...), "\x1e"...))
	f.Add(appendFrame(nil, key(1), []byte(`{"schema":2}`)))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, opts := range []Options{{}, {NoRecoveryScan: true}} {
			m := fsio.NewMemImage(fsio.Image{Files: map[string][]byte{"/s/" + LogName: data}})
			opts.FS = m
			s, err := Open("/s", opts)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			for _, k := range s.Keys() {
				rec, ok := s.Get(k)
				if opts.NoRecoveryScan {
					continue // reads verify; a frame the scan skipped may miss
				}
				if !ok {
					t.Fatalf("indexed key %s does not read back", k)
				}
				at := s.index[k]
				fr, _ := parseFrame(data[at.off : at.off+int64(at.n)])
				if enc, err := report.Encode(rec); err != nil || !bytes.Equal(enc, fr.payload) {
					t.Fatalf("record %s re-encodes to %q, frame holds %q", k, enc, fr.payload)
				}
			}
			again, err := Open("/s", opts)
			if err != nil {
				t.Fatalf("second Open: %v", err)
			}
			if a, b := s.Keys(), again.Keys(); !opts.NoRecoveryScan && strings.Join(a, ",") != strings.Join(b, ",") {
				t.Fatalf("second Open indexes %v, first %v", b, a)
			}
		}
	})
}

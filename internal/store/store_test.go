package store

import (
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

func TestStoreCorruptionQuarantine(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	if err := s.Put(key(1), testRecord(1)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Corrupt the record behind the store's back, then read it with a
	// cold front (fresh store): the read must miss, count the
	// corruption, and remove the file.
	path := filepath.Join(dir, key(1)+".json")
	if err := os.WriteFile(path, encodeRecord([]byte(`{"schema":1,"truncated`)), 0o644); err != nil {
		t.Fatalf("corrupting: %v", err)
	}
	s2 := open(t, dir, Options{NoRecoveryScan: true})
	if _, ok := s2.Get(key(1)); ok {
		t.Fatalf("Get served a corrupt record")
	}
	if st := s2.Stats(); st.Corrupt != 1 || st.Misses != 1 {
		t.Fatalf("stats after corrupt read: %+v", st)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt record was not quarantined: %v", err)
	}
	// The corrupt bytes are preserved for post-mortem inspection, with
	// the failure reason as suffix.
	moved := filepath.Join(dir, QuarantineDir, key(1)+".json.decode")
	if data, err := os.ReadFile(moved); err != nil || !strings.Contains(string(data), "truncated") {
		t.Fatalf("quarantined bytes not preserved: %q, %v", data, err)
	}
	// Wrong schema version is equally untrusted.
	if err := os.WriteFile(path, encodeRecord([]byte(`{"schema":999}`+"\n")), 0o644); err != nil {
		t.Fatalf("writing: %v", err)
	}
	if _, ok := s2.Get(key(1)); ok {
		t.Fatalf("Get served a wrong-schema record")
	}
	// The key is re-writable after quarantine.
	if err := s2.Put(key(1), testRecord(2)); err != nil {
		t.Fatalf("Put after quarantine: %v", err)
	}
	if rec, ok := s2.Get(key(1)); !ok || rec.States != 2 {
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

func TestStoreChecksumDetectsBitRot(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	if err := s.Put(key(1), testRecord(1)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Flip one payload byte in place: the JSON may still parse, but the
	// checksum must not.
	path := filepath.Join(dir, key(1)+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading record: %v", err)
	}
	if !strings.HasPrefix(string(data), "soteria-record 2 ") {
		t.Fatalf("record has no checksum header: %q", data[:32])
	}
	flipped := append([]byte{}, data...)
	flipped[len(flipped)-10] ^= 0x01
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatalf("writing flipped record: %v", err)
	}
	s2 := open(t, dir, Options{NoRecoveryScan: true})
	if _, ok := s2.Get(key(1)); ok {
		t.Fatalf("Get served a bit-rotted record")
	}
	if _, err := os.Stat(filepath.Join(dir, QuarantineDir, key(1)+".json.badsum")); err != nil {
		t.Fatalf("bit-rotted record not quarantined as badsum: %v", err)
	}
}

// TestStoreQuarantinesHeaderlessRecords: a file without the checksum
// header is unverifiable, even when it holds valid record JSON, so it
// is quarantined as torn — by the recovery scan, and by Get when the
// scan is skipped.
func TestStoreQuarantinesHeaderlessRecords(t *testing.T) {
	data, err := report.Encode(testRecord(3))
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	dir := t.TempDir()
	open(t, dir, Options{})
	for _, k := range []string{key(3), key(4)} {
		if err := os.WriteFile(filepath.Join(dir, k+".json"), data, 0o644); err != nil {
			t.Fatalf("writing headerless record: %v", err)
		}
	}

	s := open(t, dir, Options{NoRecoveryScan: true})
	if _, ok := s.Get(key(3)); ok {
		t.Fatal("Get served a headerless record")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("headerless read not counted as corrupt: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, QuarantineDir, key(3)+".json.torn")); err != nil {
		t.Fatalf("headerless record not quarantined by Get: %v", err)
	}

	s = open(t, dir, Options{})
	if rs := s.Recovery(); rs.Quarantined != 1 || rs.Scanned != 1 {
		t.Fatalf("recovery scan kept a headerless record: %+v", rs)
	}
	if _, err := os.Stat(filepath.Join(dir, QuarantineDir, key(4)+".json.torn")); err != nil {
		t.Fatalf("headerless record not quarantined by the scan: %v", err)
	}
	if _, ok := s.Get(key(4)); ok {
		t.Fatal("Get served a headerless record after recovery")
	}
}

func TestOpenRecoveryScanQuarantinesTornRecords(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	for i := 0; i < 3; i++ {
		if err := s.Put(key(i), testRecord(i)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	// Tear record 1 mid-payload (header intact, payload short) and
	// leave an orphan temp file — the post-crash disk image.
	path := filepath.Join(dir, key(1)+".json")
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatalf("tearing record: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, ".tmp-crashed"), []byte("partial"), 0o644); err != nil {
		t.Fatalf("writing temp: %v", err)
	}

	s2 := open(t, dir, Options{})
	rs := s2.Recovery()
	if rs.TempsSwept != 1 || rs.Quarantined != 1 || rs.Scanned != 3 {
		t.Fatalf("recovery stats: %+v", rs)
	}
	if st := s2.Stats(); st.Corrupt != 1 {
		t.Fatalf("scan quarantine not counted: %+v", st)
	}
	// The torn record is gone from the serving path, preserved in
	// quarantine, and the healthy records still serve.
	if _, ok := s2.Get(key(1)); ok {
		t.Fatalf("Get served a torn record after recovery")
	}
	if _, err := os.Stat(filepath.Join(dir, QuarantineDir, key(1)+".json.torn")); err != nil {
		t.Fatalf("torn record not preserved: %v", err)
	}
	for _, i := range []int{0, 2} {
		if rec, ok := s2.Get(key(i)); !ok || rec.States != i {
			t.Fatalf("healthy record %d lost after recovery: %+v, %v", i, rec, ok)
		}
	}
}

func TestPutFaultInjection(t *testing.T) {
	defer faultinject.Reset()
	boom := errors.New("injected disk fault")
	cases := []struct {
		name string
		site string
	}{
		{"short write", faultinject.SiteFSWrite},
		{"fsync failure", faultinject.SiteFSSync},
		{"rename crash", faultinject.SiteFSRename},
		{"create failure", faultinject.SiteFSCreate},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := open(t, dir, Options{FS: fsio.Faulty{Inner: fsio.OS{}}})
			if err := s.Put(key(7), testRecord(7)); err != nil {
				t.Fatalf("healthy Put: %v", err)
			}
			faultinject.ArmError(tc.site, "", boom)
			err := s.Put(key(8), testRecord(8))
			faultinject.Disarm(tc.site)
			if err == nil {
				t.Fatalf("Put under %s succeeded", tc.name)
			}
			// The failed Put must not be promoted into the memory front…
			if _, ok := s.Get(key(8)); ok {
				t.Fatalf("failed Put is served from memory")
			}
			// …must not have disturbed the earlier record…
			if rec, ok := s.Get(key(7)); !ok || rec.States != 7 {
				t.Fatalf("earlier record lost: %+v, %v", rec, ok)
			}
			// …and a reopened store (the restarted process) serves no
			// trace of it: either the temp never landed or the sweep
			// removes it.
			s2 := open(t, dir, Options{})
			if _, ok := s2.Get(key(8)); ok {
				t.Fatalf("failed Put visible after reopen")
			}
			if rs := s2.Recovery(); rs.Quarantined != 0 {
				t.Fatalf("failed Put left a quarantined record: %+v", rs)
			}
			entries, _ := os.ReadDir(dir)
			for _, e := range entries {
				if strings.HasPrefix(e.Name(), ".tmp-") {
					t.Fatalf("temp file %s survived reopen", e.Name())
				}
			}
		})
	}
}

func TestPutSurvivesDirSyncFailure(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	s := open(t, dir, Options{FS: fsio.Faulty{Inner: fsio.OS{}}})
	// A failed directory fsync after a completed rename is not a data
	// loss: the record is fsynced and in place.
	faultinject.ArmError(faultinject.SiteFSSyncDir, "", errors.New("dir sync failed"))
	if err := s.Put(key(1), testRecord(1)); err != nil {
		t.Fatalf("Put failed on dir-sync error: %v", err)
	}
	faultinject.Reset()
	if rec, ok := open(t, dir, Options{}).Get(key(1)); !ok || rec.States != 1 {
		t.Fatalf("record lost: %+v, %v", rec, ok)
	}
}

func TestOpenSweepsTempFiles(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, ".tmp-crashed")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatalf("writing temp: %v", err)
	}
	open(t, dir, Options{})
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("Open left crashed temp file: %v", err)
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

package fsio

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/soteria-analysis/soteria/internal/guard/faultinject"
)

// wholeLines is a walk for logs of newline-terminated entries.
func wholeLines(data []byte) int {
	return strings.LastIndexByte(string(data), '\n') + 1
}

func openLog(t *testing.T, fsys FS, path string) *Log {
	t.Helper()
	l, _, err := OpenLog(fsys, path, wholeLines)
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func appendEntry(t *testing.T, l *Log, entry string) uint64 {
	t.Helper()
	_, seq, err := l.Append([]byte(entry))
	if err != nil {
		t.Fatalf("Append(%q): %v", entry, err)
	}
	return seq
}

func TestLogGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l := openLog(t, OS{}, path)
	var last uint64
	for _, e := range []string{"a\n", "b\n", "c\n"} {
		last = appendEntry(t, l, e)
	}
	if err := l.SyncTo(last); err != nil {
		t.Fatalf("SyncTo: %v", err)
	}
	// The entries written before that fsync need none of their own.
	for seq := uint64(1); seq < last; seq++ {
		if err := l.SyncTo(seq); err != nil {
			t.Fatalf("SyncTo(%d): %v", seq, err)
		}
	}
	if l.Appends() != 3 || l.Syncs() != 1 {
		t.Fatalf("appends %d, syncs %d; want 3 and 1", l.Appends(), l.Syncs())
	}
	off, seq, err := l.Append([]byte("d\n"))
	if err != nil || off != 6 {
		t.Fatalf("Append = offset %d, %v; want 6", off, err)
	}
	if err := l.SyncTo(seq); err != nil || l.Syncs() != 2 {
		t.Fatalf("SyncTo = %v with %d syncs, want 2", err, l.Syncs())
	}
	buf := make([]byte, 2)
	if err := l.ReadAt(buf, off); err != nil || string(buf) != "d\n" {
		t.Fatalf("ReadAt = %q, %v", buf, err)
	}
}

// TestLogCutsFailedWrite: a short write is cut back before Append
// returns, so the next entry follows the last whole one.
func TestLogCutsFailedWrite(t *testing.T) {
	defer faultinject.Reset()
	path := filepath.Join(t.TempDir(), "log")
	l := openLog(t, Faulty{Inner: OS{}}, path)
	appendEntry(t, l, "aaaa\n")
	boom := errors.New("disk full")
	faultinject.ArmError(faultinject.SiteFSWrite, "", boom)
	if _, _, err := l.Append([]byte("bbbbbbbb\n")); !errors.Is(err, boom) {
		t.Fatalf("Append under a write fault = %v", err)
	}
	faultinject.Disarm(faultinject.SiteFSWrite)
	if off, _, err := l.Append([]byte("cc\n")); err != nil || off != 5 {
		t.Fatalf("Append after the fault = offset %d, %v; want 5", off, err)
	}
	if data, _ := os.ReadFile(path); string(data) != "aaaa\ncc\n" {
		t.Fatalf("log holds %q", data)
	}
}

// TestLogCutsFailedFsync: a failed fsync cuts every entry it was to
// cover, and their callers — including one that asks again — get an
// error, while later entries commit normally.
func TestLogCutsFailedFsync(t *testing.T) {
	defer faultinject.Reset()
	path := filepath.Join(t.TempDir(), "log")
	l := openLog(t, Faulty{Inner: OS{}}, path)
	if err := l.SyncTo(appendEntry(t, l, "a\n")); err != nil {
		t.Fatal(err)
	}
	b := appendEntry(t, l, "b\n")
	c := appendEntry(t, l, "c\n")
	boom := errors.New("io error")
	faultinject.ArmError(faultinject.SiteFSSync, "", boom)
	if err := l.SyncTo(b); !errors.Is(err, boom) {
		t.Fatalf("SyncTo under an fsync fault = %v", err)
	}
	faultinject.Disarm(faultinject.SiteFSSync)
	for _, seq := range []uint64{b, c} {
		if err := l.SyncTo(seq); err == nil {
			t.Fatalf("SyncTo(%d) of a cut entry succeeded", seq)
		}
	}
	d := appendEntry(t, l, "d\n")
	if err := l.SyncTo(d); err != nil {
		t.Fatalf("SyncTo after the fault: %v", err)
	}
	if data, _ := os.ReadFile(path); string(data) != "a\nd\n" {
		t.Fatalf("log holds %q", data)
	}
}

// TestOpenLogCutsTornTail: the tail that walk rejects is cut in place, and
// the cut is durable once the log is next fsynced.
func TestOpenLogCutsTornTail(t *testing.T) {
	m := NewMemImage(Image{Files: map[string][]byte{"/d/log": []byte("a\nb\ntor")}})
	l, cut, err := OpenLog(m, "/d/log", wholeLines)
	if err != nil || cut != 3 {
		t.Fatalf("OpenLog = cut %d, %v; want 3", cut, err)
	}
	if data, _ := m.ReadFile("/d/log"); string(data) != "a\nb\n" {
		t.Fatalf("live log = %q", data)
	}
	if got := contents(images(m)[m.Ops()], "/d/log"); !got["a\nb\ntor"] || !got["a\nb\n"] || len(got) != 2 {
		t.Fatalf("an unsynced cut should be kept or lost, got %v", got)
	}
	if err := l.SyncTo(appendEntry(t, l, "c\n")); err != nil {
		t.Fatal(err)
	}
	if got := contents(images(m)[m.Ops()], "/d/log"); !got["a\nb\nc\n"] || len(got) != 1 {
		t.Fatalf("after the fsync only the cut log may survive, got %v", got)
	}
}

// TestOpenLogSyncsNewDirEntry: a created log's directory entry is
// durable before OpenLog returns.
func TestOpenLogSyncsNewDirEntry(t *testing.T) {
	m := NewMem()
	m.MkdirAll("/d", 0o755)
	openLog(t, m, "/d/log")
	if got := contents(images(m)[m.Ops()], "/d/log"); !got[""] || len(got) != 1 {
		t.Fatalf("a created log may vanish in a crash: %v", got)
	}
}

// noTruncate is an FS whose truncations fail.
type noTruncate struct{ FS }

func (noTruncate) Truncate(string, int64) error { return errors.New("read-only") }

// TestLogRefusesAppendsAfterFailedCut: a partial write that cannot be
// cut back would sit ahead of every later entry, so the log refuses
// them.
func TestLogRefusesAppendsAfterFailedCut(t *testing.T) {
	defer faultinject.Reset()
	l := openLog(t, noTruncate{Faulty{Inner: OS{}}}, filepath.Join(t.TempDir(), "log"))
	faultinject.ArmError(faultinject.SiteFSWrite, "", errors.New("disk full"))
	if _, _, err := l.Append([]byte("partial\n")); err == nil {
		t.Fatal("Append under a write fault succeeded")
	}
	faultinject.Disarm(faultinject.SiteFSWrite)
	if _, _, err := l.Append([]byte("next\n")); err == nil || !strings.Contains(err.Error(), "refusing appends") {
		t.Fatalf("Append after a failed cut = %v, want a refusal", err)
	}
}

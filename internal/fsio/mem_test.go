package fsio

import (
	"errors"
	"io/fs"
	"testing"
)

// images collects every crash image at every op index.
func images(m *Mem) [][]Image {
	var out [][]Image
	m.Crashes(func(_ int, imgs []Image) bool {
		out = append(out, imgs)
		return true
	})
	return out
}

// contents lists the distinct contents path has across imgs ("<none>"
// when absent).
func contents(imgs []Image, path string) map[string]bool {
	out := map[string]bool{}
	for _, img := range imgs {
		if data, ok := img.Files[path]; ok {
			out[string(data)] = true
		} else {
			out["<none>"] = true
		}
	}
	return out
}

func TestMemUnsyncedWritesMayBeLost(t *testing.T) {
	m := NewMem()
	m.MkdirAll("/d", 0o755)
	f, _ := m.OpenAppend("/d/log")
	m.SyncDir("/d")
	f.Write([]byte("aaaa"))
	f.Sync()
	f.Write([]byte("bbbb"))
	last := images(m)[m.Ops()]
	got := contents(last, "/d/log")
	for _, want := range []string{"aaaa", "aaaabb", "aaaabbbb"} {
		if !got[want] {
			t.Errorf("crash after an unsynced append never leaves %q; got %v", want, got)
		}
	}
	if got["<none>"] || got[""] {
		t.Errorf("synced bytes or a dir-synced create were lost: %v", got)
	}
	// Reads see the live state.
	if data, _ := m.ReadFile("/d/log"); string(data) != "aaaabbbb" {
		t.Errorf("live read = %q", data)
	}
}

func TestMemRenameNeedsDirSync(t *testing.T) {
	m := NewMem()
	m.MkdirAll("/d", 0o755)
	if err := WriteFileAtomic(m, "/d/rec", ".tmp-*", []byte("old")); err != nil {
		t.Fatal(err)
	}
	tmp, _ := m.CreateTemp("/d", ".tmp-*")
	tmp.Write([]byte("new"))
	tmp.Sync()
	tmp.Close()
	m.Rename(tmp.Name(), "/d/rec")
	before := m.Ops()
	got := contents(images(m)[before], "/d/rec")
	if !got["old"] || !got["new"] || len(got) != 2 {
		t.Fatalf("an unsynced rename should leave old or new, got %v", got)
	}
	m.SyncDir("/d")
	got = contents(images(m)[m.Ops()], "/d/rec")
	if !got["new"] || len(got) != 1 {
		t.Fatalf("after SyncDir only the new record may survive, got %v", got)
	}
}

// TestMemWriteFileAtomicNeverTorn: at every op index of two
// replacements, the target holds a whole old or new payload.
func TestMemWriteFileAtomicNeverTorn(t *testing.T) {
	m := NewMem()
	m.MkdirAll("/d", 0o755)
	for _, v := range []string{"first-version", "second-version"} {
		if err := WriteFileAtomic(m, "/d/rec", ".tmp-*", []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	for k, imgs := range images(m) {
		for c := range contents(imgs, "/d/rec") {
			if c != "<none>" && c != "first-version" && c != "second-version" {
				t.Fatalf("op %d: torn record %q", k, c)
			}
		}
	}
}

func TestMemImageRoundTrip(t *testing.T) {
	m := NewMemImage(Image{Dirs: []string{"/s/q"}, Files: map[string][]byte{"/s/a": []byte("A")}})
	if data, err := m.ReadFile("/s/a"); err != nil || string(data) != "A" {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
	entries, err := m.ReadDir("/s")
	if err != nil || len(entries) != 2 || entries[0].Name() != "a" || !entries[1].IsDir() {
		t.Fatalf("ReadDir = %v, %v", entries, err)
	}
	if m.Ops() != 0 {
		t.Fatalf("a reopened image starts with %d logged ops", m.Ops())
	}
	imgs := images(m)
	if len(imgs) != 1 || len(imgs[0]) != 1 || string(imgs[0][0].Files["/s/a"]) != "A" {
		t.Fatalf("a reopened image is not durable: %v", imgs)
	}
	if _, err := m.ReadFile("/s/missing"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: %v", err)
	}
	if err := m.Remove("/s/a"); err != nil {
		t.Fatal(err)
	}
	if got := contents(images(m)[1], "/s/a"); !got["A"] || !got["<none>"] {
		t.Fatalf("an unsynced remove should be kept or lost, got %v", got)
	}
}

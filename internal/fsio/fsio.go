// Package fsio is the storage tier's filesystem seam. The persistent
// store and the job journal do all their file I/O through the FS
// interface so that
//
//   - production runs on OS (plain os calls plus the fsync protocol
//     helpers SyncDir needs),
//   - tests run on Faulty, which consults the faultinject error sites
//     (fsio.create/write/sync/rename/syncdir) to simulate short
//     writes, fsync failures, and crashed renames at exact protocol
//     steps,
//   - the kill-restart chaos harness runs soteriad on Chaos, which
//     stretches every write into small chunks with scheduling yields
//     so a SIGKILL lands mid-write with useful probability, and
//   - the crash model runs the service on Mem, which tracks what is
//     durable and lists the states a crash at each operation can leave
//     on disk, so a missing fsync fails a test.
//
// The interface is deliberately narrow: just the operations the
// crash-consistency protocols need (temp-file create, append-open,
// write, fsync, rename, remove, directory fsync, reads).
package fsio

import (
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"github.com/soteria-analysis/soteria/internal/guard/faultinject"
)

// File is a writable file handle: the subset of *os.File the storage
// protocols use.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
	Name() string
}

// FS abstracts the filesystem operations of the storage tier.
type FS interface {
	// MkdirAll creates dir and its parents.
	MkdirAll(dir string, perm fs.FileMode) error
	// CreateTemp creates a new temp file in dir (pattern as in
	// os.CreateTemp).
	CreateTemp(dir, pattern string) (File, error)
	// OpenAppend opens name for appending, creating it if absent.
	OpenAppend(name string) (File, error)
	// ReadFile reads the whole of name.
	ReadFile(name string) ([]byte, error)
	// ReadDir lists dir.
	ReadDir(dir string) ([]fs.DirEntry, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes name.
	Remove(name string) error
	// SyncDir fsyncs the directory itself, making a preceding rename
	// or create durable.
	SyncDir(dir string) error
}

// WriteFileAtomic replaces path with data so that a crash leaves
// either the old contents or the new ones, never a mix: a temp file
// named by pattern (as in os.CreateTemp) in path's directory → write →
// fsync → close → rename, removing the temp file on any failure. The
// directory is then fsynced best-effort: the file is already in place
// and fsynced, so a failed directory fsync can lose only the new entry
// to a power cut, which the callers' recovery tolerates.
func WriteFileAtomic(fsys FS, path, pattern string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, pattern)
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp.Name(), path)
	}
	if err != nil {
		_ = fsys.Remove(tmp.Name()) // best effort: the write error is what the caller reports
		return err
	}
	_ = fsys.SyncDir(dir)
	return nil
}

// OS is the production FS: plain os package calls.
type OS struct{}

func (OS) MkdirAll(dir string, perm fs.FileMode) error { return os.MkdirAll(dir, perm) }

func (OS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
}

func (OS) ReadFile(name string) ([]byte, error)      { return os.ReadFile(name) }
func (OS) ReadDir(dir string) ([]fs.DirEntry, error) { return os.ReadDir(dir) }
func (OS) Rename(oldpath, newpath string) error      { return os.Rename(oldpath, newpath) }
func (OS) Remove(name string) error                  { return os.Remove(name) }

// SyncDir opens dir and fsyncs it. Some filesystems (and some
// platforms) reject fsync on directories; that is indistinguishable
// from "already durable" for our purposes, so such errors are dropped.
func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		// EINVAL/ENOTSUP from directory fsync is a platform quirk, not
		// a write failure.
		return nil
	}
	return cerr
}

// Faulty wraps an FS with the faultinject error sites. Disarmed, every
// operation is one atomic load over the inner call; armed, the
// operation fails with the injected error — and an armed write first
// writes half its payload, so the failure is a genuine short write.
type Faulty struct{ Inner FS }

// base keys fault sites by the file's base name so a test can target
// one record of many.
func base(name string) string { return filepath.Base(name) }

func (f Faulty) MkdirAll(dir string, perm fs.FileMode) error { return f.Inner.MkdirAll(dir, perm) }

func (f Faulty) CreateTemp(dir, pattern string) (File, error) {
	if err := faultinject.Err(faultinject.SiteFSCreate, base(dir)); err != nil {
		return nil, err
	}
	file, err := f.Inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return faultyFile{file}, nil
}

func (f Faulty) OpenAppend(name string) (File, error) {
	if err := faultinject.Err(faultinject.SiteFSCreate, base(name)); err != nil {
		return nil, err
	}
	file, err := f.Inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return faultyFile{file}, nil
}

func (f Faulty) ReadFile(name string) ([]byte, error)      { return f.Inner.ReadFile(name) }
func (f Faulty) ReadDir(dir string) ([]fs.DirEntry, error) { return f.Inner.ReadDir(dir) }

func (f Faulty) Rename(oldpath, newpath string) error {
	if err := faultinject.Err(faultinject.SiteFSRename, base(newpath)); err != nil {
		return err
	}
	return f.Inner.Rename(oldpath, newpath)
}

func (f Faulty) Remove(name string) error { return f.Inner.Remove(name) }

func (f Faulty) SyncDir(dir string) error {
	if err := faultinject.Err(faultinject.SiteFSSyncDir, base(dir)); err != nil {
		return err
	}
	return f.Inner.SyncDir(dir)
}

type faultyFile struct{ File }

func (f faultyFile) Write(p []byte) (int, error) {
	if err := faultinject.Err(faultinject.SiteFSWrite, base(f.Name())); err != nil {
		// A failed write is rarely clean in practice: flush what a torn
		// page would hold, then report the failure.
		n, _ := f.File.Write(p[:len(p)/2])
		return n, err
	}
	return f.File.Write(p)
}

func (f faultyFile) Sync() error {
	if err := faultinject.Err(faultinject.SiteFSSync, base(f.Name())); err != nil {
		return err
	}
	return f.File.Sync()
}

// Chaos wraps an FS for the kill-restart harness: every write is split
// into Chunk-byte pieces separated by Delay, so the window in which a
// SIGKILL interrupts a record or journal write mid-way is wide enough
// to hit reliably. Reads and metadata operations pass straight
// through; correctness must not depend on the wrapper.
type Chaos struct {
	Inner FS
	Chunk int           // bytes per write slice (<=0: 256)
	Delay time.Duration // pause between slices (<=0: 1ms)
}

func (c Chaos) chunk() int {
	if c.Chunk <= 0 {
		return 256
	}
	return c.Chunk
}

func (c Chaos) delay() time.Duration {
	if c.Delay <= 0 {
		return time.Millisecond
	}
	return c.Delay
}

func (c Chaos) MkdirAll(dir string, perm fs.FileMode) error { return c.Inner.MkdirAll(dir, perm) }

func (c Chaos) CreateTemp(dir, pattern string) (File, error) {
	f, err := c.Inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return chaosFile{f, c}, nil
}

func (c Chaos) OpenAppend(name string) (File, error) {
	f, err := c.Inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return chaosFile{f, c}, nil
}

func (c Chaos) ReadFile(name string) ([]byte, error)      { return c.Inner.ReadFile(name) }
func (c Chaos) ReadDir(dir string) ([]fs.DirEntry, error) { return c.Inner.ReadDir(dir) }
func (c Chaos) Rename(oldpath, newpath string) error      { return c.Inner.Rename(oldpath, newpath) }
func (c Chaos) Remove(name string) error                  { return c.Inner.Remove(name) }
func (c Chaos) SyncDir(dir string) error                  { return c.Inner.SyncDir(dir) }

type chaosFile struct {
	File
	c Chaos
}

func (f chaosFile) Write(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		n := f.c.chunk()
		if n > len(p) {
			n = len(p)
		}
		w, err := f.File.Write(p[:n])
		total += w
		if err != nil {
			return total, err
		}
		p = p[n:]
		if len(p) > 0 {
			time.Sleep(f.c.delay())
		}
	}
	return total, nil
}

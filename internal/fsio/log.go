package fsio

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Log is an append-only file of entries the caller frames, with group
// commit: Append writes an entry without waiting, and SyncTo returns
// once an fsync covers it, so writers that pile up behind one fsync
// share it. The job journal and the result store are both a Log.
//
// A failed write is cut back at once, and a failed fsync cuts back
// every entry it was to cover, so no partial or unsynced entry is ever
// followed by a later one that an fsync made durable: on disk a Log is
// always whole entries, then at most one torn tail, which OpenLog cuts.
// If a cut itself fails, the Log refuses further appends.
//
// One Log appends to a file at a time; other handles on the same file
// (a second Store over the same directory) may read it.
type Log struct {
	fs   FS
	path string

	mu       sync.Mutex // guards f, end, writeSeq, cuts and broken, and orders writes
	f        File
	end      int64    // length of the whole entries written
	writeSeq uint64   // entries written, cut ones included
	cuts     []seqCut // write sequences a failed fsync cut back
	broken   error    // set when a cut failed: appends are refused

	syncMu    sync.Mutex // group commit: one fsync covers piled-up writes
	syncedSeq uint64
	syncedEnd int64

	appends, syncs atomic.Int64
}

// seqCut is a range (from, to] of write sequences whose entries a
// failed fsync cut back: they never become durable.
type seqCut struct{ from, to uint64 }

// OpenLog opens the log at path, creating it and fsyncing its directory
// if it does not exist, so the entries later fsynced into it cannot
// lose their file to a crash. walk gets the log's bytes and returns how
// many of them are whole entries; OpenLog cuts the rest (the tail a
// crash tore) in place, and reports how many bytes it cut. The cut
// becomes durable with the next fsync; until then a crash may bring
// the tail back, for the next OpenLog to cut again.
func OpenLog(fsys FS, path string, walk func(data []byte) int) (*Log, int, error) {
	data, err := fsys.ReadFile(path)
	created := errors.Is(err, os.ErrNotExist)
	if err != nil && !created {
		return nil, 0, err
	}
	valid := walk(data)
	cut := len(data) - valid
	if cut > 0 {
		if err := fsys.Truncate(path, int64(valid)); err != nil {
			return nil, 0, err
		}
	}
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, 0, err
	}
	if created {
		if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, 0, err
		}
	}
	return &Log{fs: fsys, path: path, f: f, end: int64(valid), syncedEnd: int64(valid)}, cut, nil
}

// Append writes entry at the end of the log and returns its offset and
// write sequence; SyncTo(seq) makes it durable. A write that fails is
// cut back before Append returns.
func (l *Log) Append(entry []byte) (off int64, seq uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usable(); err != nil {
		return 0, 0, err
	}
	if _, err := l.f.Write(entry); err != nil {
		l.cutTo(l.end)
		return 0, 0, fmt.Errorf("append to %s: %w", l.path, err)
	}
	off = l.end
	l.end += int64(len(entry))
	l.writeSeq++
	l.appends.Add(1)
	return off, l.writeSeq, nil
}

// usable reports why the log cannot take a write. l.mu is held.
func (l *Log) usable() error {
	if l.f == nil {
		return fmt.Errorf("%s: closed", l.path)
	}
	if l.broken != nil {
		return fmt.Errorf("%s: refusing appends after a failed cut: %w", l.path, l.broken)
	}
	return nil
}

// cutTo truncates the file back to size, the end of its last whole
// entry, and breaks the log if it cannot. l.mu is held.
func (l *Log) cutTo(size int64) {
	if err := l.fs.Truncate(l.path, size); err != nil {
		l.broken = err
		return
	}
	l.end = size
}

// SyncTo returns once an fsync covers write sequence seq. Concurrent
// callers share fsyncs: each waits only for the first one that covers
// its entry. If the fsync fails, every entry it was to cover is cut
// back and each of their callers gets the error.
func (l *Log) SyncTo(seq uint64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	lost := l.wasCut(seq)
	covered, end, f := l.writeSeq, l.end, l.f
	l.mu.Unlock()
	if lost {
		return fmt.Errorf("fsync %s: entry cut after a failed fsync", l.path)
	}
	if l.syncedSeq >= seq {
		return nil // a piled-up caller's fsync already covered us
	}
	if f == nil {
		return fmt.Errorf("%s: closed", l.path)
	}
	if err := f.Sync(); err != nil {
		// The entries this fsync was to cover may be partly on disk
		// and partly not; cut them all so none is followed by the
		// next durable entry.
		l.mu.Lock()
		l.cuts = append(l.cuts, seqCut{from: l.syncedSeq, to: l.writeSeq})
		l.cutTo(l.syncedEnd)
		l.mu.Unlock()
		return fmt.Errorf("fsync %s: %w", l.path, err)
	}
	l.syncs.Add(1)
	l.syncedSeq, l.syncedEnd = covered, end
	return nil
}

// wasCut reports whether a failed fsync cut entry seq. l.mu is held.
func (l *Log) wasCut(seq uint64) bool {
	for _, c := range l.cuts {
		if seq > c.from && seq <= c.to {
			return true
		}
	}
	return false
}

// ReadAt reads len(p) bytes of the log at off.
func (l *Log) ReadAt(p []byte, off int64) error {
	l.mu.Lock()
	f := l.f
	l.mu.Unlock()
	if f == nil {
		return fmt.Errorf("%s: closed", l.path)
	}
	_, err := f.ReadAt(p, off)
	return err
}

// Size is the length of the log's whole entries.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.end
}

// Rewrite replaces the log's contents with data, whole entries, by
// WriteFileAtomic, and reopens it for appending.
func (l *Log) Rewrite(data []byte) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("%s: closed", l.path)
	}
	l.f.Close() // only read from here on; a failed Close loses nothing the rewrite keeps
	l.f = nil
	if err := WriteFileAtomic(l.fs, l.path, ".tmp-"+filepath.Base(l.path)+"-*", data); err != nil {
		return fmt.Errorf("rewriting %s: %w", l.path, err)
	}
	f, err := l.fs.OpenAppend(l.path)
	if err != nil {
		return err
	}
	l.f, l.end, l.broken = f, int64(len(data)), nil
	l.syncedSeq, l.syncedEnd = l.writeSeq, l.end
	return nil
}

// Appends and Syncs count the entries written and the fsyncs that
// made them durable.
func (l *Log) Appends() int64 { return l.appends.Load() }
func (l *Log) Syncs() int64   { return l.syncs.Load() }

// Close fsyncs and closes the log, after any fsync in flight. Later
// calls do nothing.
func (l *Log) Close() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	serr := l.f.Sync()
	cerr := l.f.Close()
	l.f = nil
	if serr != nil {
		return serr
	}
	return cerr
}

package fsio

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Mem is an in-memory FS that tracks what a crash would keep, after the
// model ALICE (Pillai et al., "All File Systems Are Not Created Equal",
// OSDI 2014) uses to find lost-fsync bugs:
//
//   - a file's bytes are durable up to its last Sync;
//   - a create, rename or remove is durable once its parent directory
//     is SyncDir'ed (a rename between directories needs both);
//   - directories made by MkdirAll are durable at once.
//
// Every mutating call is logged in order. Crashes lists, for every
// prefix of that log, the states a crash at that point can leave on
// disk, and NewMemImage reopens one of them as a fresh, fully durable
// FS. Reads always see the live (page-cache) state, as on a real
// system.
type Mem struct {
	mu   sync.Mutex
	st   *memState
	base []memOp // the image a NewMemImage FS starts from, all durable
	log  []memOp
	seq  int // temp-name counter
}

// Image is the on-disk state a crash leaves: the directories and the
// bytes of every file, by path.
type Image struct {
	Dirs  []string
	Files map[string][]byte
}

// NewMem returns an empty in-memory FS.
func NewMem() *Mem { return &Mem{st: newMemState()} }

// NewMemImage returns an FS whose durable and live state are img, with
// an empty log.
func NewMemImage(img Image) *Mem {
	m := NewMem()
	for _, d := range img.Dirs {
		m.base = append(m.base, memOp{kind: opMkdir, path: d})
	}
	paths := make([]string, 0, len(img.Files))
	for p := range img.Files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for ino, p := range paths {
		m.base = append(m.base,
			memOp{kind: opMkdir, path: filepath.Dir(p)},
			memOp{kind: opCreate, path: p, ino: ino},
			memOp{kind: opWrite, ino: ino, data: append([]byte(nil), img.Files[p]...)},
			memOp{kind: opSync, ino: ino},
			memOp{kind: opSyncDir, path: filepath.Dir(p)})
	}
	for _, op := range m.base {
		m.st.apply(op)
	}
	return m
}

// Ops reports how many mutating operations have been logged: a crash
// "at" Ops() keeps everything done so far that was made durable.
func (m *Mem) Ops() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.log)
}

// Crashes calls fn for k = 0 … Ops() with the distinct states a crash
// after the first k logged operations can leave: the durable state,
// plus a prefix of each file's unsynced writes (a torn half of the next
// write included), plus a subset of each directory's unsynced namespace
// operations (every subset of up to four, otherwise every prefix).
// Choices combine fully up to maxFullProduct images; past that, fn
// gets the all-lost and all-kept images and every single-choice
// deviation from each. fn returning false stops the walk.
func (m *Mem) Crashes(fn func(k int, images []Image) bool) {
	m.mu.Lock()
	log := append([]memOp(nil), m.log...)
	m.mu.Unlock()
	st := newMemState()
	for _, op := range m.base {
		st.apply(op)
	}
	for k := 0; ; k++ {
		if !fn(k, st.crashImages()) || k == len(log) {
			return
		}
		st.apply(log[k])
	}
}

// memOp kinds.
const (
	opMkdir = iota
	opCreate
	opWrite
	opSync
	opRename
	opRemove
	opSyncDir
)

// memOp is one logged mutation.
type memOp struct {
	kind     int
	path, to string
	ino      int
	data     []byte
}

func (m *Mem) do(op memOp) {
	m.st.apply(op)
	m.log = append(m.log, op)
}

func notExist(op, path string) error {
	return &fs.PathError{Op: op, Path: path, Err: fs.ErrNotExist}
}

func (m *Mem) MkdirAll(dir string, _ fs.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.do(memOp{kind: opMkdir, path: filepath.Clean(dir)})
	return nil
}

func (m *Mem) CreateTemp(dir, pattern string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir = filepath.Clean(dir)
	if !m.st.dirs[dir] {
		return nil, notExist("createtemp", dir)
	}
	prefix, suffix := pattern, ""
	if i := strings.LastIndex(pattern, "*"); i >= 0 {
		prefix, suffix = pattern[:i], pattern[i+1:]
	}
	var name string
	for {
		m.seq++
		name = filepath.Join(dir, fmt.Sprintf("%s%06d%s", prefix, m.seq, suffix))
		if _, taken := m.st.live[name]; !taken {
			break
		}
	}
	ino := len(m.st.inodes)
	m.do(memOp{kind: opCreate, path: name, ino: ino})
	return &memFile{m: m, ino: ino, name: name}, nil
}

func (m *Mem) OpenAppend(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	if !m.st.dirs[filepath.Dir(name)] {
		return nil, notExist("open", name)
	}
	ino, ok := m.st.live[name]
	if !ok {
		ino = len(m.st.inodes)
		m.do(memOp{kind: opCreate, path: name, ino: ino})
	}
	return &memFile{m: m, ino: ino, name: name}, nil
}

func (m *Mem) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino, ok := m.st.live[filepath.Clean(name)]
	if !ok {
		return nil, notExist("open", name)
	}
	return append([]byte(nil), m.st.inodes[ino].data...), nil
}

func (m *Mem) ReadDir(dir string) ([]fs.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir = filepath.Clean(dir)
	if !m.st.dirs[dir] {
		return nil, notExist("readdir", dir)
	}
	var out []fs.DirEntry
	for d := range m.st.dirs {
		if d != dir && filepath.Dir(d) == dir {
			out = append(out, memEntry{name: filepath.Base(d), dir: true})
		}
	}
	for p, ino := range m.st.live {
		if filepath.Dir(p) == dir {
			out = append(out, memEntry{name: filepath.Base(p), size: int64(len(m.st.inodes[ino].data))})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

func (m *Mem) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	if _, ok := m.st.live[oldpath]; !ok {
		return notExist("rename", oldpath)
	}
	if !m.st.dirs[filepath.Dir(newpath)] {
		return notExist("rename", newpath)
	}
	m.do(memOp{kind: opRename, path: oldpath, to: newpath})
	return nil
}

func (m *Mem) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	if _, ok := m.st.live[name]; !ok {
		return notExist("remove", name)
	}
	m.do(memOp{kind: opRemove, path: name})
	return nil
}

func (m *Mem) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir = filepath.Clean(dir)
	if !m.st.dirs[dir] {
		return notExist("syncdir", dir)
	}
	m.do(memOp{kind: opSyncDir, path: dir})
	return nil
}

// memFile is a handle on one inode; it keeps writing to the inode
// after a rename, as an open file descriptor does.
type memFile struct {
	m      *Mem
	ino    int
	name   string
	closed bool
}

func (f *memFile) Write(p []byte) (int, error) {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	if f.closed {
		return 0, fs.ErrClosed
	}
	if len(p) > 0 {
		f.m.do(memOp{kind: opWrite, ino: f.ino, data: append([]byte(nil), p...)})
	}
	return len(p), nil
}

func (f *memFile) Sync() error {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	if f.closed {
		return fs.ErrClosed
	}
	f.m.do(memOp{kind: opSync, ino: f.ino})
	return nil
}

func (f *memFile) Close() error {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	if f.closed {
		return fs.ErrClosed
	}
	f.closed = true
	return nil
}

func (f *memFile) Name() string { return f.name }

// memEntry is a ReadDir result.
type memEntry struct {
	name string
	dir  bool
	size int64
}

func (e memEntry) Name() string { return e.name }
func (e memEntry) IsDir() bool  { return e.dir }
func (e memEntry) Type() fs.FileMode {
	if e.dir {
		return fs.ModeDir
	}
	return 0
}
func (e memEntry) Info() (fs.FileInfo, error) { return e, nil }
func (e memEntry) Size() int64                { return e.size }
func (e memEntry) Mode() fs.FileMode          { return e.Type() | 0o644 }
func (e memEntry) ModTime() time.Time         { return time.Time{} }
func (e memEntry) Sys() any                   { return nil }

// memInode is one file's bytes: data[:synced] is durable, and cuts
// holds the end offset of each write since the last Sync.
type memInode struct {
	data   []byte
	synced int
	cuts   []int
}

// nsOp is one unsynced namespace change in a directory: a create adds
// a link, a remove drops one, a rename within the directory does both
// at once (between directories, each side is its own nsOp).
type nsOp struct {
	link, unlink   string
	linkI, unlinkI int
}

// memState is the filesystem the log describes: the live namespace
// that reads see, the durable one a crash keeps, and what lies between.
type memState struct {
	dirs    map[string]bool
	inodes  []*memInode
	live    map[string]int    // path → inode
	durable map[string]int    // path → inode, as of each directory's last SyncDir
	pending map[string][]nsOp // directory → namespace changes since its last SyncDir
}

func newMemState() *memState {
	return &memState{
		dirs:    map[string]bool{},
		live:    map[string]int{},
		durable: map[string]int{},
		pending: map[string][]nsOp{},
	}
}

func (s *memState) apply(op memOp) {
	switch op.kind {
	case opMkdir:
		for d := op.path; !s.dirs[d]; d = filepath.Dir(d) {
			s.dirs[d] = true
		}
	case opCreate:
		for len(s.inodes) <= op.ino {
			s.inodes = append(s.inodes, &memInode{})
		}
		s.live[op.path] = op.ino
		dir := filepath.Dir(op.path)
		s.pending[dir] = append(s.pending[dir], nsOp{link: op.path, linkI: op.ino})
	case opWrite:
		in := s.inodes[op.ino]
		in.data = append(in.data, op.data...)
		in.cuts = append(in.cuts, len(in.data))
	case opSync:
		in := s.inodes[op.ino]
		in.synced, in.cuts = len(in.data), nil
	case opRename:
		ino := s.live[op.path]
		delete(s.live, op.path)
		s.live[op.to] = ino
		from, to := filepath.Dir(op.path), filepath.Dir(op.to)
		if from == to {
			s.pending[to] = append(s.pending[to], nsOp{link: op.to, linkI: ino, unlink: op.path, unlinkI: ino})
		} else {
			s.pending[from] = append(s.pending[from], nsOp{unlink: op.path, unlinkI: ino})
			s.pending[to] = append(s.pending[to], nsOp{link: op.to, linkI: ino})
		}
	case opRemove:
		ino := s.live[op.path]
		delete(s.live, op.path)
		dir := filepath.Dir(op.path)
		s.pending[dir] = append(s.pending[dir], nsOp{unlink: op.path, unlinkI: ino})
	case opSyncDir:
		for p := range s.durable {
			if filepath.Dir(p) == op.path {
				delete(s.durable, p)
			}
		}
		for p, ino := range s.live {
			if filepath.Dir(p) == op.path {
				s.durable[p] = ino
			}
		}
		delete(s.pending, op.path)
	}
}

// maxFullProduct bounds the images one crash point enumerates in full.
const maxFullProduct = 64

// maxSubsetOps is the most unsynced namespace operations of one
// directory whose every subset is tried; past it, only prefixes are.
const maxSubsetOps = 4

// crashChoice is one dimension of a crash: a directory's unsynced
// namespace operations or a file's unsynced writes, with its options
// ordered from "all lost" (0) to "all kept" (n-1).
type crashChoice struct {
	dir string // set for a directory choice
	ino int    // set (dir == "") for a file choice
	n   int
}

func (s *memState) crashImages() []Image {
	var choices []crashChoice
	dirs := make([]string, 0, len(s.pending))
	for d := range s.pending {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	touched := map[int]bool{}
	for _, ino := range s.durable {
		touched[ino] = true
	}
	for _, d := range dirs {
		ops := s.pending[d]
		n := len(ops) + 1
		if len(ops) <= maxSubsetOps {
			n = 1 << len(ops)
		}
		choices = append(choices, crashChoice{dir: d, n: n})
		for _, op := range ops {
			if op.link != "" {
				touched[op.linkI] = true
			}
		}
	}
	inos := make([]int, 0, len(touched))
	for ino := range touched {
		inos = append(inos, ino)
	}
	sort.Ints(inos)
	for _, ino := range inos {
		if c := len(s.inodes[ino].cuts); c > 0 {
			choices = append(choices, crashChoice{ino: ino, n: 2*c + 1})
		}
	}

	var picks [][]int
	total := 1
	for _, c := range choices {
		if total *= c.n; total > maxFullProduct {
			break
		}
	}
	if total <= maxFullProduct {
		pick := make([]int, len(choices))
		for {
			picks = append(picks, append([]int(nil), pick...))
			i := 0
			for ; i < len(pick); i++ {
				if pick[i]++; pick[i] < choices[i].n {
					break
				}
				pick[i] = 0
			}
			if i == len(pick) {
				break
			}
		}
	} else {
		for _, kept := range []bool{false, true} {
			base := make([]int, len(choices))
			if kept {
				for i, c := range choices {
					base[i] = c.n - 1
				}
			}
			picks = append(picks, base)
			for i, c := range choices {
				for o := 0; o < c.n; o++ {
					if o != base[i] {
						p := append([]int(nil), base...)
						p[i] = o
						picks = append(picks, p)
					}
				}
			}
		}
	}
	out := make([]Image, 0, len(picks))
	for _, p := range picks {
		out = append(out, s.image(choices, p))
	}
	return out
}

// image renders the crash state that takes option pick[i] of each
// choice.
func (s *memState) image(choices []crashChoice, pick []int) Image {
	ns := make(map[string]int, len(s.durable))
	for p, ino := range s.durable {
		ns[p] = ino
	}
	keep := map[int]int{} // inode → option
	for i, c := range choices {
		if c.dir == "" {
			keep[c.ino] = pick[i]
			continue
		}
		ops := s.pending[c.dir]
		for j, op := range ops {
			var kept bool
			if len(ops) <= maxSubsetOps {
				kept = pick[i]&(1<<j) != 0
			} else {
				kept = j < pick[i]
			}
			if !kept {
				continue
			}
			if ino, ok := ns[op.unlink]; ok && op.unlink != "" && ino == op.unlinkI {
				delete(ns, op.unlink)
			}
			if op.link != "" {
				ns[op.link] = op.linkI
			}
		}
	}
	img := Image{Files: make(map[string][]byte, len(ns))}
	for d := range s.dirs {
		img.Dirs = append(img.Dirs, d)
	}
	sort.Strings(img.Dirs)
	for p, ino := range ns {
		in := s.inodes[ino]
		end := in.synced
		if o, ok := keep[ino]; ok && o > 0 {
			// Option 2w keeps w whole writes; 2w-1 keeps w-1 of them and
			// the first half of the w-th, a torn write.
			w := (o + 1) / 2
			end = in.cuts[w-1]
			if o%2 == 1 {
				start := in.synced
				if w > 1 {
					start = in.cuts[w-2]
				}
				end = start + (end-start)/2
			}
		}
		img.Files[p] = in.data[:end:end]
	}
	return img
}

// Package fs implements the in-memory filesystem the simulated kernel
// serves syscalls from: a POSIX-flavoured inode tree with directories,
// regular files, permissions, timestamps and the operations the guest
// corpus needs (open/creat/trunc/append, unlink, mkdir, rename, chmod,
// stat, utimens, getdents).
//
// Times are expressed in simulation cycles, not wall-clock time: the
// machine's cycle counter is the only clock in the system.
package fs

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Mode bits (a small subset of POSIX).
type Mode uint32

// Mode flags.
const (
	ModeDir Mode = 1 << 14
	// ModePermMask covers the permission bits.
	ModePermMask Mode = 0o777
)

// Errors mirror the errno values the kernel converts them to.
var (
	ErrNotExist    = errors.New("fs: no such file or directory") // ENOENT
	ErrExist       = errors.New("fs: file exists")               // EEXIST
	ErrNotDir      = errors.New("fs: not a directory")           // ENOTDIR
	ErrIsDir       = errors.New("fs: is a directory")            // EISDIR
	ErrNotEmpty    = errors.New("fs: directory not empty")       // ENOTEMPTY
	ErrBadPath     = errors.New("fs: invalid path")              // EINVAL
	ErrReadOnly    = errors.New("fs: bad file descriptor mode")  // EBADF
	ErrNameTooLong = errors.New("fs: name too long")             // ENAMETOOLONG
	ErrSealed      = errors.New("fs: read-only file system")     // EROFS
)

// MaxNameLen bounds a single path component.
const MaxNameLen = 255

// Inode is one filesystem object.
type Inode struct {
	Ino      uint64
	Mode     Mode
	Size     uint64
	Data     []byte            // regular files
	Children map[string]*Inode // directories
	// Atime/Mtime/Ctime are in cycles.
	Atime, Mtime, Ctime uint64
	Nlink               uint32
}

// IsDir reports whether the inode is a directory.
func (i *Inode) IsDir() bool { return i.Mode&ModeDir != 0 }

// FS is one filesystem instance. All methods are safe for concurrent use.
//
// A filesystem may be sealed (Seal) once its content is final: every
// mutation then fails uniformly with ErrSealed — checked before path
// resolution, so a sealed filesystem's error responses depend only on
// the request, never on tree state — and read paths take the read lock
// and skip access-time maintenance (atime is not guest-observable: stat
// serialises only ino/mode/size/mtime). Sealing makes every fs
// operation a pure function of (path, flags), which is what lets the
// parallel scheduler (internal/kernel/parallel.go) run file reads from
// concurrent guest quanta without serialising them.
type FS struct {
	mu      sync.RWMutex
	root    *Inode
	nextIno uint64
	clock   func() uint64
	sealed  atomic.Bool
}

// Seal marks the filesystem read-only. There is no unseal.
func (f *FS) Seal() { f.sealed.Store(true) }

// Sealed reports whether the filesystem has been sealed.
func (f *FS) Sealed() bool { return f.sealed.Load() }

// New returns an empty filesystem. clock supplies the current cycle count
// for timestamps; a nil clock freezes time at zero.
func New(clock func() uint64) *FS {
	if clock == nil {
		clock = func() uint64 { return 0 }
	}
	f := &FS{nextIno: 2, clock: clock}
	f.root = &Inode{
		Ino:      1,
		Mode:     ModeDir | 0o755,
		Children: make(map[string]*Inode),
		Nlink:    2,
	}
	return f
}

// inlineComps is how many path components resolve without allocating:
// lookups pass split a stack array of this size to append into.
const inlineComps = 16

// split normalises an absolute path into components, appended to comps.
// The components are substrings of path, so with a stack-backed comps
// (see inlineComps) an open or stat allocates nothing for its path.
func split(path string, comps []string) ([]string, error) {
	if path == "" || path[0] != '/' {
		return nil, fmt.Errorf("%w: %q", ErrBadPath, path)
	}
	for rest := path[1:]; rest != ""; {
		var c string
		c, rest, _ = strings.Cut(rest, "/")
		switch c {
		case "", ".":
		case "..":
			if len(comps) > 0 {
				comps = comps[:len(comps)-1]
			}
		default:
			if len(c) > MaxNameLen {
				return nil, ErrNameTooLong
			}
			comps = append(comps, c)
		}
	}
	return comps, nil
}

// walk resolves path to an inode.
func (f *FS) walk(path string) (*Inode, error) {
	ino, err := f.lookup(path)
	if err != nil {
		return nil, withPath(err, path)
	}
	return ino, nil
}

// withPath names path in a bare ErrNotExist, as walk and walkParent
// report a missing path; other errors pass through.
func withPath(err error, path string) error {
	if err == ErrNotExist {
		return fmt.Errorf("%w: %q", ErrNotExist, path)
	}
	return err
}

// lookup is walk returning the bare ErrNotExist for a missing path, so a
// caller that acts on a missing file — Open creating one — builds no
// error it discards.
func (f *FS) lookup(path string) (*Inode, error) {
	var buf [inlineComps]string
	comps, err := split(path, buf[:0])
	if err != nil {
		return nil, err
	}
	cur := f.root
	for _, c := range comps {
		if !cur.IsDir() {
			return nil, ErrNotDir
		}
		next, ok := cur.Children[c]
		if !ok {
			return nil, ErrNotExist
		}
		cur = next
	}
	return cur, nil
}

// walkParent resolves the parent directory of path and returns it with
// the final component.
func (f *FS) walkParent(path string) (*Inode, string, error) {
	var buf [inlineComps]string
	comps, err := split(path, buf[:0])
	if err != nil {
		return nil, "", err
	}
	if len(comps) == 0 {
		return nil, "", fmt.Errorf("%w: %q", ErrBadPath, path)
	}
	cur := f.root
	for _, c := range comps[:len(comps)-1] {
		next, ok := cur.Children[c]
		if !ok {
			return nil, "", withPath(ErrNotExist, path)
		}
		if !next.IsDir() {
			return nil, "", ErrNotDir
		}
		cur = next
	}
	return cur, comps[len(comps)-1], nil
}

// Stat returns a snapshot of the inode's metadata.
func (f *FS) Stat(path string) (Stat, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	ino, err := f.walk(path)
	if err != nil {
		return Stat{}, err
	}
	return statOf(ino), nil
}

// Stat is the metadata snapshot (struct stat analogue).
type Stat struct {
	Ino   uint64
	Mode  Mode
	Size  uint64
	Mtime uint64
	Nlink uint32
}

func statOf(i *Inode) Stat {
	return Stat{Ino: i.Ino, Mode: i.Mode, Size: i.Size, Mtime: i.Mtime, Nlink: i.Nlink}
}

// Mkdir creates a directory.
func (f *FS) Mkdir(path string, perm Mode) error {
	if f.Sealed() {
		return ErrSealed
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	parent, name, err := f.walkParent(path)
	if err != nil {
		return err
	}
	if !parent.IsDir() {
		return ErrNotDir
	}
	if _, ok := parent.Children[name]; ok {
		return ErrExist
	}
	now := f.clock()
	f.nextIno++
	parent.Children[name] = &Inode{
		Ino:      f.nextIno,
		Mode:     ModeDir | (perm & ModePermMask),
		Children: make(map[string]*Inode),
		Atime:    now, Mtime: now, Ctime: now,
		Nlink: 2,
	}
	parent.Mtime = now
	return nil
}

// MkdirAll creates path and any missing parents.
func (f *FS) MkdirAll(path string, perm Mode) error {
	comps, err := split(path, nil)
	if err != nil {
		return err
	}
	cur := "/"
	for _, c := range comps {
		cur = join(cur, c)
		if err := f.Mkdir(cur, perm); err != nil && !errors.Is(err, ErrExist) {
			return err
		}
	}
	return nil
}

func join(dir, name string) string {
	if dir == "/" {
		return "/" + name
	}
	return dir + "/" + name
}

// WriteFile creates (or truncates) a file with contents.
func (f *FS) WriteFile(path string, data []byte, perm Mode) error {
	h, err := f.Open(path, OpenWrite|OpenCreate|OpenTrunc, perm)
	if err != nil {
		return err
	}
	_, err = h.WriteAt(data, 0)
	return err
}

// ReadFile returns a copy of a file's contents.
func (f *FS) ReadFile(path string) ([]byte, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	ino, err := f.walk(path)
	if err != nil {
		return nil, err
	}
	if ino.IsDir() {
		return nil, ErrIsDir
	}
	out := make([]byte, len(ino.Data))
	copy(out, ino.Data)
	return out, nil
}

// Unlink removes a file (not a directory).
func (f *FS) Unlink(path string) error {
	if f.Sealed() {
		return ErrSealed
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	parent, name, err := f.walkParent(path)
	if err != nil {
		return err
	}
	child, ok := parent.Children[name]
	if !ok {
		return ErrNotExist
	}
	if child.IsDir() {
		return ErrIsDir
	}
	delete(parent.Children, name)
	child.Nlink--
	parent.Mtime = f.clock()
	return nil
}

// Rmdir removes an empty directory.
func (f *FS) Rmdir(path string) error {
	if f.Sealed() {
		return ErrSealed
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	parent, name, err := f.walkParent(path)
	if err != nil {
		return err
	}
	child, ok := parent.Children[name]
	if !ok {
		return ErrNotExist
	}
	if !child.IsDir() {
		return ErrNotDir
	}
	if len(child.Children) != 0 {
		return ErrNotEmpty
	}
	delete(parent.Children, name)
	parent.Mtime = f.clock()
	return nil
}

// Rename moves oldpath to newpath (replacing a non-directory target).
func (f *FS) Rename(oldpath, newpath string) error {
	if f.Sealed() {
		return ErrSealed
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	op, oname, err := f.walkParent(oldpath)
	if err != nil {
		return err
	}
	child, ok := op.Children[oname]
	if !ok {
		return ErrNotExist
	}
	np, nname, err := f.walkParent(newpath)
	if err != nil {
		return err
	}
	if existing, ok := np.Children[nname]; ok {
		if existing.IsDir() {
			return ErrIsDir
		}
	}
	delete(op.Children, oname)
	np.Children[nname] = child
	now := f.clock()
	op.Mtime, np.Mtime = now, now
	return nil
}

// Chmod updates permission bits.
func (f *FS) Chmod(path string, perm Mode) error {
	if f.Sealed() {
		return ErrSealed
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	ino, err := f.walk(path)
	if err != nil {
		return err
	}
	ino.Mode = (ino.Mode &^ ModePermMask) | (perm & ModePermMask)
	ino.Ctime = f.clock()
	return nil
}

// Utimens updates the access and modification times (touch).
func (f *FS) Utimens(path string, atime, mtime uint64) error {
	if f.Sealed() {
		return ErrSealed
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	ino, err := f.walk(path)
	if err != nil {
		return err
	}
	ino.Atime, ino.Mtime = atime, mtime
	return nil
}

// ReadDir lists a directory in name order.
func (f *FS) ReadDir(path string) ([]DirEnt, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	ino, err := f.walk(path)
	if err != nil {
		return nil, err
	}
	if !ino.IsDir() {
		return nil, ErrNotDir
	}
	names := make([]string, 0, len(ino.Children))
	for n := range ino.Children {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]DirEnt, len(names))
	for i, n := range names {
		c := ino.Children[n]
		out[i] = DirEnt{Name: n, Ino: c.Ino, IsDir: c.IsDir()}
	}
	return out, nil
}

// DirEnt is one directory entry.
type DirEnt struct {
	Name  string
	Ino   uint64
	IsDir bool
}

// Open flags.
type OpenFlag uint32

// Open flag values (subset of O_*).
const (
	OpenRead OpenFlag = 1 << iota
	OpenWrite
	OpenCreate
	OpenTrunc
	OpenAppend
	OpenExcl
)

// File is an open file handle with an offset, the object a kernel fd
// points at.
type File struct {
	fs    *FS
	inode *Inode
	flags OpenFlag

	mu  sync.Mutex
	off uint64

	// sharedFork is set when a descriptor referencing this open file is
	// duplicated across a fork boundary: the two tasks then share the
	// offset, which the parallel scheduler treats as order-sensitive
	// state (internal/kernel/parallel.go).
	sharedFork atomic.Bool
}

// MarkSharedAcrossFork records that this open file description crossed a
// fork boundary.
func (h *File) MarkSharedAcrossFork() { h.sharedFork.Store(true) }

// SharedAcrossFork reports whether the description crossed a fork
// boundary.
func (h *File) SharedAcrossFork() bool { return h.sharedFork.Load() }

// Open opens path. With OpenCreate the file is created if missing.
func (f *FS) Open(path string, flags OpenFlag, perm Mode) (*File, error) {
	if f.Sealed() {
		return f.openSealed(path, flags)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	ino, err := f.lookup(path)
	if err == ErrNotExist && flags&OpenCreate != 0 {
		parent, name, perr := f.walkParent(path)
		if perr != nil {
			return nil, perr
		}
		now := f.clock()
		f.nextIno++
		ino = &Inode{
			Ino:   f.nextIno,
			Mode:  perm & ModePermMask,
			Atime: now, Mtime: now, Ctime: now,
			Nlink: 1,
		}
		parent.Children[name] = ino
		parent.Mtime = now
	} else if err != nil {
		return nil, withPath(err, path)
	} else if flags&(OpenCreate|OpenExcl) == OpenCreate|OpenExcl {
		return nil, ErrExist
	}
	if ino.IsDir() && flags&OpenWrite != 0 {
		return nil, ErrIsDir
	}
	if flags&OpenTrunc != 0 && !ino.IsDir() {
		ino.Data = nil
		ino.Size = 0
		ino.Mtime = f.clock()
	}
	return &File{fs: f, inode: ino, flags: flags}, nil
}

// openSealed is Open on a sealed filesystem: no inode can be created,
// truncated or time-stamped, so the whole operation runs under the read
// lock. Opening a missing file for creation, or an existing one with
// OpenTrunc, fails with ErrSealed; handles opened for writing are
// permitted (write attempts through them fail in WriteAt), matching
// Linux, which refuses O_CREAT/O_TRUNC on a read-only mount at open
// time.
func (f *FS) openSealed(path string, flags OpenFlag) (*File, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	ino, err := f.lookup(path)
	if err == ErrNotExist && flags&OpenCreate != 0 {
		return nil, ErrSealed
	} else if err != nil {
		return nil, withPath(err, path)
	}
	if flags&(OpenCreate|OpenExcl) == OpenCreate|OpenExcl {
		return nil, ErrExist
	}
	if ino.IsDir() && flags&OpenWrite != 0 {
		return nil, ErrIsDir
	}
	if flags&OpenTrunc != 0 && !ino.IsDir() {
		return nil, ErrSealed
	}
	return &File{fs: f, inode: ino, flags: flags}, nil
}

// Inode exposes the file's inode number.
func (h *File) Inode() uint64 { return h.inode.Ino }

// Size returns the current file size.
func (h *File) Size() uint64 {
	h.fs.mu.RLock()
	defer h.fs.mu.RUnlock()
	return h.inode.Size
}

// IsDir reports whether the handle refers to a directory.
func (h *File) IsDir() bool { return h.inode.IsDir() }

// Stat returns the handle's inode metadata (fstat).
func (h *File) Stat() Stat {
	h.fs.mu.RLock()
	defer h.fs.mu.RUnlock()
	return statOf(h.inode)
}

// Offset returns the current file offset.
func (h *File) Offset() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.off
}

// Avail reports how many bytes a ReadAt of up to max bytes at off would
// return — ReadAt's checks and its EOF rule (0, nil) without the copy.
// It is how the kernel sizes a transfer before moving it: a sendfile
// bounded by socket space can tell "nothing left in the file" from
// "no room in the socket", and never copies more than it can send.
func (h *File) Avail(off, max uint64) (uint64, error) {
	if h.flags&OpenRead == 0 {
		return 0, ErrReadOnly
	}
	h.fs.mu.RLock()
	defer h.fs.mu.RUnlock()
	if h.inode.IsDir() {
		return 0, ErrIsDir
	}
	if off >= h.inode.Size {
		return 0, nil
	}
	return min(max, h.inode.Size-off), nil
}

// Read reads from the current offset.
func (h *File) Read(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	n, err := h.ReadAt(p, h.off)
	h.off += uint64(n)
	return n, err
}

// ReadAt reads at an absolute offset. At EOF it returns (0, nil) — the
// kernel translates that to a zero-byte read like Linux does.
func (h *File) ReadAt(p []byte, off uint64) (int, error) {
	if h.flags&OpenRead == 0 {
		return 0, ErrReadOnly
	}
	if h.fs.Sealed() {
		// No atime maintenance on a sealed tree (atime is not
		// guest-observable), so the read takes the read lock.
		h.fs.mu.RLock()
		defer h.fs.mu.RUnlock()
		if h.inode.IsDir() {
			return 0, ErrIsDir
		}
		if off >= h.inode.Size {
			return 0, nil
		}
		return copy(p, h.inode.Data[off:]), nil
	}
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.inode.IsDir() {
		return 0, ErrIsDir
	}
	if off >= h.inode.Size {
		return 0, nil
	}
	n := copy(p, h.inode.Data[off:])
	h.inode.Atime = h.fs.clock()
	return n, nil
}

// Write writes at the current offset (or at EOF with OpenAppend).
func (h *File) Write(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	off := h.off
	if h.flags&OpenAppend != 0 {
		off = h.Size()
	}
	n, err := h.WriteAt(p, off)
	h.off = off + uint64(n)
	return n, err
}

// WriteAt writes at an absolute offset, growing the file as needed.
func (h *File) WriteAt(p []byte, off uint64) (int, error) {
	if h.flags&OpenWrite == 0 {
		return 0, ErrReadOnly
	}
	if h.fs.Sealed() {
		return 0, ErrSealed
	}
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.inode.IsDir() {
		return 0, ErrIsDir
	}
	end := off + uint64(len(p))
	if old := uint64(len(h.inode.Data)); end > old {
		if c := uint64(cap(h.inode.Data)); end > c {
			// Double the capacity so appending in small chunks copies the
			// file a logarithmic number of times, not once per chunk. A
			// file written in one piece gets exactly its size.
			grown := make([]byte, end, max(end, 2*c))
			copy(grown, h.inode.Data)
			h.inode.Data = grown
		} else {
			h.inode.Data = h.inode.Data[:end]
			if off > old {
				clear(h.inode.Data[old:off]) // a hole reads as zeros
			}
		}
	}
	copy(h.inode.Data[off:end], p)
	if end > h.inode.Size {
		h.inode.Size = end
	}
	h.inode.Mtime = h.fs.clock()
	return len(p), nil
}

// Seek sets the file offset (whence: 0=set, 1=cur, 2=end) and returns it.
func (h *File) Seek(off int64, whence int) (int64, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var base uint64
	switch whence {
	case 0:
	case 1:
		base = h.off
	case 2:
		base = h.Size()
	default:
		return 0, ErrBadPath
	}
	n := int64(base) + off
	if n < 0 {
		return 0, ErrBadPath
	}
	h.off = uint64(n)
	return n, nil
}

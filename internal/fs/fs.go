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

// FS is one filesystem instance, owned by one simulated machine.
//
// A filesystem may be sealed (Seal) once its content is final: every
// mutation then fails uniformly with ErrSealed — checked before path
// resolution, so a sealed filesystem's error responses depend only on
// the request, never on tree state — and reads skip access-time
// maintenance (atime is not guest-observable: stat serialises only
// ino/mode/size/mtime). Serving workloads seal their content tree once
// it is built: a guest that tries to change it sees EROFS.
type FS struct {
	root    *Inode
	nextIno uint64
	clock   func() uint64
	sealed  bool
}

// Seal marks the filesystem read-only. There is no unseal.
func (f *FS) Seal() { f.sealed = true }

// Sealed reports whether the filesystem has been sealed.
func (f *FS) Sealed() bool { return f.sealed }

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

// pathBytes is a path as the string API takes it or as the kernel reads
// it from guest memory. One resolver serves both: a lookup's
// Children[string(c)] does not allocate, so a Go string is made only to
// store a new name or to report an error.
type pathBytes interface{ ~string | ~[]byte }

// comp is one path component, path[lo:hi]. Components are offsets, not
// subslices, so a path with more than inlineComps of them grows the
// array without moving the path itself to the heap.
type comp struct{ lo, hi int }

// split normalises an absolute path into components, appended to comps.
// With a stack-backed comps (see inlineComps) an open or stat allocates
// nothing for its path.
func split[P pathBytes](path P, comps []comp) ([]comp, error) {
	if len(path) == 0 || path[0] != '/' {
		return nil, fmt.Errorf("%w: %q", ErrBadPath, string(path))
	}
	for i := 1; i < len(path); {
		j := i
		for j < len(path) && path[j] != '/' {
			j++
		}
		c := path[i:j]
		switch {
		case len(c) == 0, len(c) == 1 && c[0] == '.':
		case len(c) == 2 && c[0] == '.' && c[1] == '.':
			if len(comps) > 0 {
				comps = comps[:len(comps)-1]
			}
		case len(c) > MaxNameLen:
			return nil, ErrNameTooLong
		default:
			comps = append(comps, comp{i, j})
		}
		i = j + 1
	}
	return comps, nil
}

// walk resolves path to an inode.
func walk[P pathBytes](f *FS, path P) (*Inode, error) {
	ino, err := lookup(f, path)
	if err != nil {
		return nil, withPath(err, path)
	}
	return ino, nil
}

// withPath names path in a bare ErrNotExist, as walk and walkParent
// report a missing path; other errors pass through.
func withPath[P pathBytes](err error, path P) error {
	if err == ErrNotExist {
		return fmt.Errorf("%w: %q", ErrNotExist, string(path))
	}
	return err
}

// lookup is walk returning the bare ErrNotExist for a missing path, so a
// caller that acts on a missing file — open creating one — builds no
// error it discards.
func lookup[P pathBytes](f *FS, path P) (*Inode, error) {
	var buf [inlineComps]comp
	comps, err := split(path, buf[:0])
	if err != nil {
		return nil, err
	}
	cur := f.root
	for _, c := range comps {
		if !cur.IsDir() {
			return nil, ErrNotDir
		}
		next, ok := cur.Children[string(path[c.lo:c.hi])]
		if !ok {
			return nil, ErrNotExist
		}
		cur = next
	}
	return cur, nil
}

// walkParent resolves the parent directory of path and returns it with
// the final component.
func walkParent[P pathBytes](f *FS, path P) (*Inode, P, error) {
	var buf [inlineComps]comp
	comps, err := split(path, buf[:0])
	if err != nil {
		return nil, path[:0], err
	}
	if len(comps) == 0 {
		return nil, path[:0], fmt.Errorf("%w: %q", ErrBadPath, string(path))
	}
	cur := f.root
	for _, c := range comps[:len(comps)-1] {
		next, ok := cur.Children[string(path[c.lo:c.hi])]
		if !ok {
			return nil, path[:0], withPath(ErrNotExist, path)
		}
		if !next.IsDir() {
			return nil, path[:0], ErrNotDir
		}
		cur = next
	}
	last := comps[len(comps)-1]
	return cur, path[last.lo:last.hi], nil
}

// Stat returns a snapshot of the inode's metadata.
func (f *FS) Stat(path string) (Stat, error) { return stat(f, path) }

// StatBytes is Stat of a path held as bytes (the kernel's stat and
// access, from guest memory): it allocates nothing for an existing path.
//
// It is not inlined: a caller that inlined it would call the generic
// stat without its escape facts and move the path's bytes to the heap.
//
//go:noinline
func (f *FS) StatBytes(path []byte) (Stat, error) { return stat(f, path) }

func stat[P pathBytes](f *FS, path P) (Stat, error) {
	ino, err := walk(f, path)
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
	parent, name, err := walkParent(f, path)
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
		cur = join(cur, path[c.lo:c.hi])
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
	ino, err := walk(f, path)
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
	parent, name, err := walkParent(f, path)
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
	parent, name, err := walkParent(f, path)
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
	op, oname, err := walkParent(f, oldpath)
	if err != nil {
		return err
	}
	child, ok := op.Children[oname]
	if !ok {
		return ErrNotExist
	}
	np, nname, err := walkParent(f, newpath)
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
	ino, err := walk(f, path)
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
	ino, err := walk(f, path)
	if err != nil {
		return err
	}
	ino.Atime, ino.Mtime = atime, mtime
	return nil
}

// ReadDir lists the directory the handle refers to, in name order: the
// inode it was opened on, whatever name that inode has now (getdents64).
func (h *File) ReadDir() ([]DirEnt, error) {
	ino := h.inode
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
	off   uint64
}

// Open opens path. With OpenCreate the file is created if missing. A
// sealed filesystem creates, truncates and time-stamps nothing: opening a
// missing file for creation, or an existing one with OpenTrunc, fails
// with ErrSealed;
// handles opened for writing are permitted (write attempts through them
// fail in WriteAt), matching Linux, which refuses O_CREAT/O_TRUNC on a
// read-only mount at open time.
func (f *FS) Open(path string, flags OpenFlag, perm Mode) (*File, error) {
	h := new(File)
	if err := open(f, h, path, flags, perm); err != nil {
		return nil, err
	}
	return h, nil
}

// OpenInto is Open of a path held as bytes (the kernel's open, from
// guest memory) into caller storage: h must be a zero File, and is the
// handle once OpenInto returns nil. The kernel keeps h in its
// descriptor's allocation, so an open of an existing file allocates
// nothing here. Like StatBytes, it is not inlined.
//
//go:noinline
func (f *FS) OpenInto(h *File, path []byte, flags OpenFlag, perm Mode) error {
	return open(f, h, path, flags, perm)
}

func open[P pathBytes](f *FS, h *File, path P, flags OpenFlag, perm Mode) error {
	ino, err := lookup(f, path)
	switch {
	case err == ErrNotExist && flags&OpenCreate != 0:
		if f.sealed {
			return ErrSealed
		}
		parent, name, perr := walkParent(f, path)
		if perr != nil {
			return perr
		}
		now := f.clock()
		f.nextIno++
		ino = &Inode{
			Ino:   f.nextIno,
			Mode:  perm & ModePermMask,
			Atime: now, Mtime: now, Ctime: now,
			Nlink: 1,
		}
		parent.Children[string(name)] = ino
		parent.Mtime = now
	case err != nil:
		return withPath(err, path)
	case flags&(OpenCreate|OpenExcl) == OpenCreate|OpenExcl:
		return ErrExist
	}
	if ino.IsDir() && flags&OpenWrite != 0 {
		return ErrIsDir
	}
	if flags&OpenTrunc != 0 && !ino.IsDir() {
		if f.sealed {
			return ErrSealed
		}
		ino.Data = nil
		ino.Size = 0
		ino.Mtime = f.clock()
	}
	h.fs, h.inode, h.flags = f, ino, flags
	return nil
}

// Inode exposes the file's inode number.
func (h *File) Inode() uint64 { return h.inode.Ino }

// Size returns the current file size.
func (h *File) Size() uint64 { return h.inode.Size }

// IsDir reports whether the handle refers to a directory.
func (h *File) IsDir() bool { return h.inode.IsDir() }

// Stat returns the handle's inode metadata (fstat).
func (h *File) Stat() Stat { return statOf(h.inode) }

// Offset returns the current file offset.
func (h *File) Offset() uint64 { return h.off }

// Avail reports how many bytes a ReadAt of up to max bytes at off would
// return — ReadAt's checks and its EOF rule (0, nil) without the copy.
// It is how the kernel sizes a transfer before moving it: a sendfile
// bounded by socket space can tell "nothing left in the file" from
// "no room in the socket", and never copies more than it can send.
func (h *File) Avail(off, max uint64) (uint64, error) {
	if h.flags&OpenRead == 0 {
		return 0, ErrReadOnly
	}
	if h.inode.IsDir() {
		return 0, ErrIsDir
	}
	if off >= h.inode.Size {
		return 0, nil
	}
	return min(max, h.inode.Size-off), nil
}

// ReadAt reads at an absolute offset. At EOF it returns (0, nil) — the
// kernel translates that to a zero-byte read like Linux does.
func (h *File) ReadAt(p []byte, off uint64) (int, error) {
	if h.flags&OpenRead == 0 {
		return 0, ErrReadOnly
	}
	if h.inode.IsDir() {
		return 0, ErrIsDir
	}
	if off >= h.inode.Size {
		return 0, nil
	}
	n := copy(p, h.inode.Data[off:])
	h.touch()
	return n, nil
}

// touch stamps a read's access time; a sealed tree keeps none (atime is
// not guest-observable).
func (h *File) touch() {
	if !h.fs.sealed {
		h.inode.Atime = h.fs.clock()
	}
}

// Sink is the far end of ReadTo: guest memory, for read(2). *kernel.Task
// qualifies.
type Sink interface {
	WriteAt(addr uint64, p []byte) error
}

// ReadTo reads from the current offset into dst at addr: up to n bytes
// are written to dst straight from the inode's data. The offset advances
// past every byte the file held for the read even when dst fails
// part-way, as a read(2) whose copy-out faults still consumed them. It
// returns how many bytes that was and dst's error; a file error (not
// readable, a directory) comes with 0, before dst is touched.
func (h *File) ReadTo(dst Sink, addr uint64, n int) (int, error) {
	if h.flags&OpenRead == 0 {
		return 0, ErrReadOnly
	}
	if h.inode.IsDir() {
		return 0, ErrIsDir
	}
	if h.off >= h.inode.Size || n <= 0 {
		return 0, nil
	}
	p := h.inode.Data[h.off:min(h.inode.Size, h.off+uint64(n))]
	h.touch()
	h.off += uint64(len(p))
	return len(p), dst.WriteAt(addr, p)
}

// SealedExtent returns up to n of the file's bytes from off on, aliasing
// the inode's data, when the filesystem is sealed: those bytes can never
// change, so they may be held by reference — a socket queues them instead
// of a copy (netstack.Endpoint.WriteFrom). At or past EOF it returns no
// bytes. ok is false when the filesystem is not sealed or the handle
// cannot be read (not open for reading, a directory); ReadAt then copies,
// or reports why not.
func (h *File) SealedExtent(off uint64, n int) (p []byte, ok bool) {
	if h.flags&OpenRead == 0 || !h.fs.Sealed() || h.inode.IsDir() {
		return nil, false
	}
	size := h.inode.Size
	if off >= size || n <= 0 {
		return nil, true
	}
	return h.inode.Data[off:min(size, off+uint64(n))], true
}

// Write writes at the current offset (or at EOF with OpenAppend).
func (h *File) Write(p []byte) (int, error) {
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

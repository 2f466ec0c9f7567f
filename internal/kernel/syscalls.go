package kernel

import (
	"bytes"
	"encoding/binary"
	"errors"

	"lazypoline/internal/bpf"
	"lazypoline/internal/chaos"
	"lazypoline/internal/fs"
	"lazypoline/internal/mem"
	"lazypoline/internal/netstack"
)

// maxIOChunk bounds a single read/write transfer.
const maxIOChunk = 1 << 20

// dispatch executes one syscall. Unknown numbers — including the
// microbenchmark's syscall 500 — return -ENOSYS after a full kernel
// round trip, exactly the "non-existent syscall" the paper measures.
func (k *Kernel) dispatch(t *Task, nr int64, args [6]uint64) sysResult {
	// Parallel rounds: order-sensitive syscalls wait for the round
	// frontier before executing (no-op in sequential rounds).
	k.syscallGate(t, nr, args)
	switch nr {
	case SysRead:
		return k.sysRead(t, args)
	case SysWrite:
		return k.sysWrite(t, args)
	case SysOpen:
		return k.sysOpen(t, args[0], args[1], args[2])
	case SysOpenat:
		return k.sysOpen(t, args[1], args[2], args[3]) // dirfd ignored: absolute paths
	case SysClose:
		if !t.Files.Close(int(args[0])) {
			return sysErr(EBADF)
		}
		return sysRet(0)
	case SysStat:
		return k.sysStat(t, args)
	case SysFstat:
		return k.sysFstat(t, args)
	case SysLseek:
		return k.sysLseek(t, args)
	case SysMmap:
		return k.sysMmap(t, args)
	case SysMprotect:
		return k.sysMprotect(t, args)
	case SysMunmap:
		if err := t.AS.Unmap(args[0], args[1]); err != nil {
			return sysErr(EINVAL)
		}
		return sysRet(0)
	case SysBrk:
		return sysRet(0)
	case SysRtSigaction:
		return k.sysRtSigaction(t, args)
	case SysRtSigprocmask:
		return k.sysRtSigprocmask(t, args)
	case SysRtSigreturn:
		k.sigreturn(t)
		return sysNoReturn()
	case SysIoctl:
		return sysRet(0)
	case SysAccess:
		return k.sysAccess(t, args)
	case SysSchedYield:
		return sysRet(0)
	case SysDup:
		return k.sysDup(t, args)
	case SysDup2:
		return k.sysDup2(t, args)
	case SysPipe2:
		return k.sysPipe2(t, args)
	case SysNanosleep:
		return k.sysNanosleep(t, args)
	case SysGetpid:
		return sysRet(int64(t.Tgid))
	case SysSendfile:
		return k.sysSendfile(t, args)
	case SysGettid:
		return sysRet(int64(t.ID))
	case SysSocket:
		// SOCK_NONBLOCK (0x800) in the type argument marks the socket
		// non-blocking, as on Linux; web servers use it on listeners.
		return sysRet(int64(t.Files.Alloc(&FD{Kind: FDSocket, Nonblock: args[1]&ONonblock != 0})))
	case SysBind:
		return k.sysBind(t, args)
	case SysListen:
		return k.sysListen(t, args)
	case SysAccept, SysAccept4:
		return k.sysAccept(t, args)
	case SysSendto:
		return k.sysWrite(t, args)
	case SysRecvfrom:
		return k.sysRead(t, args)
	case SysShutdown:
		return sysRet(0)
	case SysClone:
		return k.sysClone(t, args)
	case SysFork, SysVfork:
		return k.sysClone(t, [6]uint64{0, 0, 0, 0, 0, 0})
	case SysExecve:
		return k.sysExecve(t, args)
	case SysExit:
		k.exitTask(t, int(args[0]))
		return sysNoReturn()
	case SysExitGroup:
		k.exitGroup(t, int(args[0]))
		return sysNoReturn()
	case SysWait4:
		return k.sysWait4(t, args)
	case SysKill, SysTgkill:
		return k.sysKill(t, nr, args)
	case SysGetcwd:
		return k.sysGetcwd(t, args)
	case SysRename:
		return k.sysPath2(t, args, k.FS.Rename)
	case SysMkdir:
		return k.sysPathPerm(t, args, func(p string, m fs.Mode) error { return k.FS.Mkdir(p, m) })
	case SysRmdir:
		return k.sysPath1(t, args, k.FS.Rmdir)
	case SysUnlink:
		return k.sysPath1(t, args, k.FS.Unlink)
	case SysChmod:
		return k.sysPathPerm(t, args, k.FS.Chmod)
	case SysPtrace:
		return sysErr(EPERM) // guests may not ptrace; tracers attach host-side
	case SysPrctl:
		return k.sysPrctl(t, args)
	case SysArchPrctl:
		return k.sysArchPrctl(t, args)
	case SysFutex:
		return sysRet(0)
	case SysGetdents64:
		return k.sysGetdents64(t, args)
	case SysSetTidAddress:
		t.TidAddress = args[0]
		return sysRet(int64(t.ID))
	case SysSetRobustList:
		t.RobustList = args[0]
		return sysRet(0)
	case SysEpollCreate1:
		return sysRet(int64(t.Files.Alloc(&FD{Kind: FDEpoll, Epoll: NewEpoll()})))
	case SysEpollCtl:
		return k.sysEpollCtl(t, args)
	case SysEpollWait:
		return k.sysEpollWait(t, args)
	case SysUtimensat:
		return k.sysUtimensat(t, args)
	case SysSeccomp:
		// Guest-side filter installation is not supported; mechanisms use
		// Kernel.AttachSeccomp. EINVAL mirrors a rejected filter.
		return sysErr(EINVAL)
	case SysGetrandom:
		return k.sysGetrandom(t, args)
	default:
		return sysErr(ENOSYS)
	}
}

// AttachSeccomp installs a seccomp filter on a task (host-side equivalent
// of seccomp(SECCOMP_SET_MODE_FILTER); filters stack and are inherited
// across clone/fork/execve and can never be removed — the inflexibility
// the paper cites as a reason Wine moved to SUD).
func (k *Kernel) AttachSeccomp(t *Task, p *bpf.Program) {
	t.Seccomp = append(t.Seccomp, p)
}

// maxPathLen bounds a guest path, terminator excluded (PATH_MAX).
const maxPathLen = 4096

// readPath reads a NUL-terminated path from guest memory, a chunk at a
// time into a stack array. A chunk never crosses a page boundary: a path
// that ends just before an unmapped page must not fault on it, and
// within one page a chunk faults exactly when its first byte would.
func (k *Kernel) readPath(t *Task, addr uint64) (string, bool) {
	var chunk [256]byte
	var long []byte // only for paths that outgrow one chunk
	for len(long) < maxPathLen {
		at := addr + uint64(len(long))
		n := min(len(chunk), maxPathLen-len(long), int(mem.PageSize-at%mem.PageSize))
		if err := t.ReadAt(at, chunk[:n]); err != nil {
			return "", false
		}
		if i := bytes.IndexByte(chunk[:n], 0); i >= 0 {
			if long == nil {
				return string(chunk[:i]), true
			}
			return string(append(long, chunk[:i]...)), true
		}
		long = append(long, chunk[:n]...)
	}
	return "", false
}

// fsErrno maps fs errors to errno values.
func fsErrno(err error) int64 {
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return ENOENT
	case errors.Is(err, fs.ErrExist):
		return EEXIST
	case errors.Is(err, fs.ErrNotDir):
		return ENOTDIR
	case errors.Is(err, fs.ErrIsDir):
		return EISDIR
	case errors.Is(err, fs.ErrNotEmpty):
		return ENOTEMPTY
	case errors.Is(err, fs.ErrNameTooLong):
		return ENAMETOOLONG
	case errors.Is(err, fs.ErrReadOnly):
		return EBADF
	case errors.Is(err, fs.ErrSealed):
		return EROFS
	default:
		return EINVAL
	}
}

func (k *Kernel) sysOpen(t *Task, pathPtr, flags, mode uint64) sysResult {
	path, ok := k.readPath(t, pathPtr)
	if !ok {
		return sysErr(EFAULT)
	}
	var of fs.OpenFlag
	switch flags & 0x3 {
	case ORdonly:
		of = fs.OpenRead
	case OWronly:
		of = fs.OpenWrite
	case ORdwr:
		of = fs.OpenRead | fs.OpenWrite
	}
	if flags&OCreat != 0 {
		of |= fs.OpenCreate
	}
	if flags&OExcl != 0 {
		of |= fs.OpenExcl
	}
	if flags&OTrunc != 0 {
		of |= fs.OpenTrunc
	}
	if flags&OAppend != 0 {
		of |= fs.OpenAppend
	}
	h, err := k.FS.Open(path, of, fs.Mode(mode))
	if err != nil {
		return sysErr(fsErrno(err))
	}
	fd := t.Files.Alloc(&FD{Kind: FDFile, File: h, Path: path, Nonblock: flags&ONonblock != 0})
	return sysRet(int64(fd))
}

func (k *Kernel) sysRead(t *Task, args [6]uint64) sysResult {
	fd, ok := t.Files.Get(int(args[0]))
	if !ok {
		return sysErr(EBADF)
	}
	count := args[2]
	if count > maxIOChunk {
		count = maxIOChunk
	}
	// Chaos short read: shrink the transfer before it happens, so file
	// offsets and socket buffers stay consistent with what the guest
	// actually received. Short reads are legal for every byte stream —
	// hardened guests loop until satisfied or EOF.
	count = k.chaosShortIO(t, chaos.SiteShortRead, count)
	var buf []byte
	var n int
	switch fd.Kind {
	case FDConsole:
		return sysRet(0) // console EOF
	case FDFile:
		// Sized first: stage what the file still holds, not what the
		// guest's buffer could take.
		avail, err := fd.File.Avail(fd.File.Offset(), count)
		if err != nil {
			return sysErr(fsErrno(err))
		}
		buf = t.ioBuf(int(avail))
		n, err = fd.File.Read(buf)
		if err != nil {
			return sysErr(fsErrno(err))
		}
	case FDSocket:
		if fd.Sock == nil {
			return sysErr(EBADF)
		}
		t.telAdoptCtx(fd.Sock.TraceCtx())
		// What a socket holds is only known once Read has aged the
		// segments in flight, so the staging is sized by count.
		buf = t.ioBuf(int(count))
		var err error
		n, err = fd.Sock.Read(buf)
		if errors.Is(err, netstack.ErrWouldBlock) {
			if fd.Nonblock {
				return sysErr(EAGAIN)
			}
			sock := fd.Sock
			return sysBlock(func() bool { return sock.Ready()&(netstack.ReadyIn|netstack.ReadyHup) != 0 })
		}
		if errors.Is(err, netstack.ErrReset) {
			return sysErr(ECONNRESET)
		}
		if err != nil {
			return sysErr(EBADF)
		}
	default:
		return sysErr(EBADF)
	}
	if n > 0 {
		if err := t.WriteAt(args[1], buf[:n]); err != nil {
			return sysErr(EFAULT)
		}
	}
	t.CPU.Cycles += k.Costs.CopyCost(n)
	return sysRet(int64(n))
}

func (k *Kernel) sysWrite(t *Task, args [6]uint64) sysResult {
	fd, ok := t.Files.Get(int(args[0]))
	if !ok {
		return sysErr(EBADF)
	}
	count := args[2]
	if count > maxIOChunk {
		count = maxIOChunk
	}
	// Chaos short write: accept only a prefix. POSIX lets write(2)
	// return less than requested at any time; hardened guests advance
	// the buffer and loop.
	count = k.chaosShortIO(t, chaos.SiteShortWrite, count)
	buf := t.ioBuf(int(count))
	if count > 0 {
		if err := t.ReadAt(args[1], buf); err != nil {
			return sysErr(EFAULT)
		}
	}
	var n int
	switch fd.Kind {
	case FDConsole:
		t.ConsoleOut = append(t.ConsoleOut, buf...)
		n = len(buf)
	case FDFile:
		var err error
		n, err = fd.File.Write(buf)
		if err != nil {
			return sysErr(fsErrno(err))
		}
	case FDSocket:
		if fd.Sock == nil {
			return sysErr(EBADF)
		}
		t.telAdoptCtx(fd.Sock.TraceCtx())
		var err error
		n, err = fd.Sock.Write(buf)
		if errors.Is(err, netstack.ErrWouldBlock) {
			if fd.Nonblock {
				return sysErr(EAGAIN)
			}
			sock := fd.Sock
			return sysBlock(func() bool { return sock.Ready()&(netstack.ReadyOut|netstack.ReadyHup) != 0 })
		}
		if errors.Is(err, netstack.ErrReset) {
			return sysErr(ECONNRESET)
		}
		if errors.Is(err, netstack.ErrPipe) {
			// Write to a closed peer: EPIPE (SIGPIPE is default-ignored in
			// our guests' interest; Linux would raise it).
			return sysErr(EPIPE)
		}
		if err != nil {
			return sysErr(EBADF)
		}
	default:
		return sysErr(EBADF)
	}
	t.CPU.Cycles += k.Costs.CopyCost(n)
	return sysRet(int64(n))
}

// sysSendfile implements sendfile(out_fd, in_fd, offset_ptr, count):
// an in-kernel file-to-socket copy — one syscall moves up to count bytes
// without a round trip through guest memory, which is why real web
// servers use it and why per-byte interposition overhead vanishes for
// large responses. With a null offset pointer the file offset is used
// and advanced; otherwise the u64 it points at is, and the file offset
// stays put, like Linux. Returns the number of bytes sent; blocks while
// the socket is full.
//
// The transfer is sized before anything moves — the least of count, what
// the file still holds and what the socket has room for — so a 512-byte
// file asked for with count = 256 KiB stages 512 bytes. The order of
// observable effects is fixed (DESIGN.md §16): fd checks, offset
// pointer, chaos short write, file error or EOF (0 is returned before
// the socket is consulted at all), then Endpoint.Write's own order —
// fault-plan Reset once per call that gets this far, full socket or
// not, then space, then Drop/Delay — and finally the offset advances by
// exactly the bytes sent.
func (k *Kernel) sysSendfile(t *Task, args [6]uint64) sysResult {
	out, ok := t.Files.Get(int(args[0]))
	if !ok || out.Kind != FDSocket || out.Sock == nil {
		return sysErr(EBADF)
	}
	t.telAdoptCtx(out.Sock.TraceCtx())
	in, ok := t.Files.Get(int(args[1]))
	if !ok || in.Kind != FDFile {
		return sysErr(EBADF)
	}
	offPtr := args[2]
	var off uint64
	if offPtr == 0 {
		off = in.File.Offset()
	} else {
		var err error
		if off, err = t.ReadU64(offPtr); err != nil {
			return sysErr(EFAULT)
		}
	}
	count := args[3]
	if count > maxIOChunk {
		count = maxIOChunk
	}
	// Chaos short write: sendfile may legally send any prefix of count;
	// servers loop on the returned byte count.
	count = k.chaosShortIO(t, chaos.SiteShortWrite, count)
	avail, err := in.File.Avail(off, count)
	if err != nil {
		return sysErr(fsErrno(err))
	}
	if avail == 0 {
		return sysRet(0) // EOF
	}
	// A full socket sizes the transfer to nothing; Write is still called,
	// with no bytes, so that the fault plan is consulted and a dead peer
	// reported exactly as for a write that had something to send.
	buf := t.ioBuf(min(int(avail), out.Sock.WriteSpace()))
	n, err := in.File.ReadAt(buf, off)
	if err != nil {
		return sysErr(fsErrno(err))
	}
	if n == 0 && len(buf) > 0 {
		return sysRet(0) // truncated under us since Avail: EOF after all
	}
	sent, werr := out.Sock.Write(buf[:n])
	switch {
	case sent > 0:
		if offPtr == 0 {
			if _, err := in.File.Seek(int64(sent), 1); err != nil {
				return sysErr(EINVAL)
			}
		} else if err := t.WriteU64(offPtr, off+uint64(sent)); err != nil {
			return sysErr(EFAULT)
		}
		// One kernel-internal copy instead of read+write's two.
		t.CPU.Cycles += k.Costs.CopyCost(sent)
		return sysRet(int64(sent))
	case errors.Is(werr, netstack.ErrWouldBlock), werr == nil:
		// (nil: the socket was full when the transfer was sized and a
		// concurrent reader made room before Write looked. Nothing was
		// sent; the retry sizes it again.)
		if out.Nonblock {
			return sysErr(EAGAIN)
		}
		sock := out.Sock
		return sysBlock(func() bool { return sock.Ready()&(netstack.ReadyOut|netstack.ReadyHup) != 0 })
	case errors.Is(werr, netstack.ErrPipe):
		return sysErr(EPIPE)
	case errors.Is(werr, netstack.ErrReset):
		return sysErr(ECONNRESET)
	}
	return sysErr(EBADF)
}

func (k *Kernel) sysStat(t *Task, args [6]uint64) sysResult {
	path, ok := k.readPath(t, args[0])
	if !ok {
		return sysErr(EFAULT)
	}
	st, err := k.FS.Stat(path)
	if err != nil {
		return sysErr(fsErrno(err))
	}
	return k.writeStat(t, args[1], st)
}

func (k *Kernel) sysFstat(t *Task, args [6]uint64) sysResult {
	fd, ok := t.Files.Get(int(args[0]))
	if !ok || fd.Kind != FDFile {
		return sysErr(EBADF)
	}
	return k.writeStat(t, args[1], fd.File.Stat())
}

// writeStat serialises a 32-byte stat buffer: ino, mode, size, mtime.
func (k *Kernel) writeStat(t *Task, addr uint64, st fs.Stat) sysResult {
	var buf [32]byte
	binary.LittleEndian.PutUint64(buf[0:], st.Ino)
	binary.LittleEndian.PutUint64(buf[8:], uint64(st.Mode))
	binary.LittleEndian.PutUint64(buf[16:], st.Size)
	binary.LittleEndian.PutUint64(buf[24:], st.Mtime)
	if err := t.WriteAt(addr, buf[:]); err != nil {
		return sysErr(EFAULT)
	}
	return sysRet(0)
}

// StatSize is the size of the serialised stat buffer.
const StatSize = 32

func (k *Kernel) sysLseek(t *Task, args [6]uint64) sysResult {
	fd, ok := t.Files.Get(int(args[0]))
	if !ok || fd.Kind != FDFile {
		return sysErr(EBADF)
	}
	off, err := fd.File.Seek(int64(args[1]), int(args[2]))
	if err != nil {
		return sysErr(EINVAL)
	}
	return sysRet(off)
}

func (k *Kernel) sysMmap(t *Task, args [6]uint64) sysResult {
	addr, length, prot, flags := args[0], args[1], args[2], args[3]
	if flags&MapAnonBit == 0 {
		return sysErr(EINVAL) // file-backed mmap not modelled
	}
	p := memProt(prot)
	if flags&MapFixedBit != 0 {
		length = (length + mem.PageSize - 1) &^ (mem.PageSize - 1)
		if err := t.AS.MapFixed(addr, length, p); err != nil {
			return sysErr(ENOMEM)
		}
		return sysRet(int64(addr))
	}
	got, err := t.AS.MapAnon(length, p)
	if err != nil {
		return sysErr(ENOMEM)
	}
	return sysRet(int64(got))
}

func memProt(prot uint64) mem.Prot {
	var p mem.Prot
	if prot&ProtReadBit != 0 {
		p |= mem.ProtRead
	}
	if prot&ProtWriteBit != 0 {
		p |= mem.ProtWrite
	}
	if prot&ProtExecBit != 0 {
		p |= mem.ProtExec
	}
	return p
}

func (k *Kernel) sysMprotect(t *Task, args [6]uint64) sysResult {
	length := (args[1] + mem.PageSize - 1) &^ (mem.PageSize - 1)
	if err := t.AS.Protect(args[0], length, memProt(args[2])); err != nil {
		return sysErr(EINVAL)
	}
	return sysRet(0)
}

func (k *Kernel) sysRtSigaction(t *Task, args [6]uint64) sysResult {
	sig := int(args[0])
	if sig <= 0 || sig >= NumSignals || sig == SIGKILL {
		return sysErr(EINVAL)
	}
	if args[2] != 0 { // oldact
		old := t.Sig.Get(sig)
		var buf [24]byte
		binary.LittleEndian.PutUint64(buf[0:], old.Handler)
		binary.LittleEndian.PutUint64(buf[8:], old.Mask)
		binary.LittleEndian.PutUint64(buf[16:], old.Flags)
		if err := t.WriteAt(args[2], buf[:]); err != nil {
			return sysErr(EFAULT)
		}
	}
	if args[1] != 0 { // act
		var buf [24]byte
		if err := t.ReadAt(args[1], buf[:]); err != nil {
			return sysErr(EFAULT)
		}
		t.Sig.Set(sig, SigAction{
			Handler: binary.LittleEndian.Uint64(buf[0:]),
			Mask:    binary.LittleEndian.Uint64(buf[8:]),
			Flags:   binary.LittleEndian.Uint64(buf[16:]),
		})
	}
	return sysRet(0)
}

// SigactionSize is the guest layout of struct sigaction: handler, mask,
// flags (24 bytes).
const SigactionSize = 24

func (k *Kernel) sysRtSigprocmask(t *Task, args [6]uint64) sysResult {
	how := int(args[0])
	if args[2] != 0 {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], t.SigMask)
		if err := t.WriteAt(args[2], buf[:]); err != nil {
			return sysErr(EFAULT)
		}
	}
	if args[1] != 0 {
		var buf [8]byte
		if err := t.ReadAt(args[1], buf[:]); err != nil {
			return sysErr(EFAULT)
		}
		set := binary.LittleEndian.Uint64(buf[:])
		switch how {
		case 0: // SIG_BLOCK
			t.SigMask |= set
		case 1: // SIG_UNBLOCK
			t.SigMask &^= set
		case 2: // SIG_SETMASK
			t.SigMask = set
		default:
			return sysErr(EINVAL)
		}
	}
	return sysRet(0)
}

func (k *Kernel) sysAccess(t *Task, args [6]uint64) sysResult {
	path, ok := k.readPath(t, args[0])
	if !ok {
		return sysErr(EFAULT)
	}
	if _, err := k.FS.Stat(path); err != nil {
		return sysErr(fsErrno(err))
	}
	return sysRet(0)
}

func (k *Kernel) sysDup(t *Task, args [6]uint64) sysResult {
	fd, ok := t.Files.Get(int(args[0]))
	if !ok {
		return sysErr(EBADF)
	}
	cp := *fd
	cp.addRefs()
	return sysRet(int64(t.Files.Alloc(&cp)))
}

// sysDup2 duplicates oldfd onto newfd, closing newfd first if open.
func (k *Kernel) sysDup2(t *Task, args [6]uint64) sysResult {
	oldfd, newfd := int(args[0]), int(args[1])
	f, ok := t.Files.Get(oldfd)
	if !ok {
		return sysErr(EBADF)
	}
	if oldfd == newfd {
		return sysRet(int64(newfd))
	}
	t.Files.Close(newfd)
	cp := *f
	cp.addRefs()
	t.Files.Install(newfd, &cp)
	return sysRet(int64(newfd))
}

// sysPipe2 creates a unidirectional byte channel: fds[0] is the read
// end, fds[1] the write end. The pipe is modelled as a connected
// endpoint pair (same buffering, EOF and EPIPE semantics as sockets).
func (k *Kernel) sysPipe2(t *Task, args [6]uint64) sysResult {
	r, w := netstack.NewPipe()
	nonblock := args[1]&ONonblock != 0
	rfd := t.Files.Alloc(&FD{Kind: FDSocket, Sock: r, Nonblock: nonblock, Path: "pipe:[r]"})
	wfd := t.Files.Alloc(&FD{Kind: FDSocket, Sock: w, Nonblock: nonblock, Path: "pipe:[w]"})
	var buf [8]byte
	binary.LittleEndian.PutUint32(buf[0:], uint32(rfd))
	binary.LittleEndian.PutUint32(buf[4:], uint32(wfd))
	if err := t.WriteAt(args[0], buf[:]); err != nil {
		t.Files.Close(rfd)
		t.Files.Close(wfd)
		return sysErr(EFAULT)
	}
	return sysRet(0)
}

func (k *Kernel) sysNanosleep(t *Task, args [6]uint64) sysResult {
	var buf [16]byte
	if err := t.ReadAt(args[0], buf[:]); err != nil {
		return sysErr(EFAULT)
	}
	sec := binary.LittleEndian.Uint64(buf[0:])
	nsec := binary.LittleEndian.Uint64(buf[8:])
	// 2.1 GHz: 2.1 cycles per ns, saturating.
	cycles := sec*2_100_000_000 + nsec*21/10
	t.CPU.Cycles += cycles
	return sysRet(0)
}

func (k *Kernel) sysGetcwd(t *Task, args [6]uint64) sysResult {
	if args[1] < 2 {
		return sysErr(EINVAL)
	}
	if err := t.WriteAt(args[0], []byte{'/', 0}); err != nil {
		return sysErr(EFAULT)
	}
	return sysRet(2)
}

func (k *Kernel) sysKill(t *Task, nr int64, args [6]uint64) sysResult {
	var pid, sig uint64
	if nr == SysTgkill {
		pid, sig = args[1], args[2]
	} else {
		pid, sig = args[0], args[1]
	}
	target, ok := k.tasks[int(pid)]
	if !ok || !target.Alive() {
		return sysErr(ESRCH)
	}
	if sig == 0 {
		return sysRet(0)
	}
	if sig >= NumSignals {
		return sysErr(EINVAL)
	}
	k.postSignalCross(t, target, pendingSignal{sig: int(sig)})
	return sysRet(0)
}

func (k *Kernel) sysPrctl(t *Task, args [6]uint64) sysResult {
	if args[0] == PrSetSyscallPrivilege {
		return k.sysPrivilege(t, args)
	}
	if args[0] != PrSetSyscallUserDispatch {
		return sysErr(EINVAL)
	}
	switch args[1] {
	case PrSysDispatchOff:
		t.SUD = SUDConfig{}
		return sysRet(0)
	case PrSysDispatchOn:
		cfg := SUDConfig{
			Enabled:      true,
			RangeLo:      args[2],
			RangeLen:     args[3],
			SelectorAddr: args[4],
		}
		if err := k.ConfigSUD(t, cfg); err != nil {
			return sysErr(EFAULT)
		}
		return sysRet(0)
	default:
		return sysErr(EINVAL)
	}
}

func (k *Kernel) sysArchPrctl(t *Task, args [6]uint64) sysResult {
	switch args[0] {
	case ArchSetGs:
		t.CPU.GSBase = args[1]
	case ArchSetFs:
		t.CPU.FSBase = args[1]
	case ArchGetGs:
		if err := t.WriteU64(args[1], t.CPU.GSBase); err != nil {
			return sysErr(EFAULT)
		}
	case ArchGetFs:
		if err := t.WriteU64(args[1], t.CPU.FSBase); err != nil {
			return sysErr(EFAULT)
		}
	default:
		return sysErr(EINVAL)
	}
	return sysRet(0)
}

func (k *Kernel) sysGetdents64(t *Task, args [6]uint64) sysResult {
	fd, ok := t.Files.Get(int(args[0]))
	if !ok || fd.Kind != FDFile || !fd.File.IsDir() {
		return sysErr(EBADF)
	}
	ents, err := k.FS.ReadDir(fd.Path)
	if err != nil {
		return sysErr(fsErrno(err))
	}
	// Simplified dirent packing: [ino u64][type u8][namelen u8][name].
	// Sized first: the records that fit in the guest's buffer.
	fit, size := 0, 0
	for _, e := range ents {
		if uint64(size+10+len(e.Name)) > args[2] {
			break
		}
		size += 10 + len(e.Name)
		fit++
	}
	out := t.ioBuf(size)
	rec := out
	for _, e := range ents[:fit] {
		binary.LittleEndian.PutUint64(rec[0:], e.Ino)
		if e.IsDir {
			rec[8] = 4 // DT_DIR
		} else {
			rec[8] = 8 // DT_REG
		}
		rec[9] = byte(len(e.Name))
		copy(rec[10:], e.Name)
		rec = rec[10+len(e.Name):]
	}
	if len(out) > 0 {
		if err := t.WriteAt(args[1], out); err != nil {
			return sysErr(EFAULT)
		}
	}
	t.CPU.Cycles += k.Costs.CopyCost(len(out))
	return sysRet(int64(len(out)))
}

func (k *Kernel) sysUtimensat(t *Task, args [6]uint64) sysResult {
	path, ok := k.readPath(t, args[1])
	if !ok {
		return sysErr(EFAULT)
	}
	// Sealed check before reading the clock: on a sealed filesystem the
	// result must not depend on k.Now(), which an off-frontier parallel
	// quantum is not allowed to observe (kernel/parallel.go).
	if k.FS.Sealed() {
		return sysErr(EROFS)
	}
	now := k.Now()
	if err := k.FS.Utimens(path, now, now); err != nil {
		return sysErr(fsErrno(err))
	}
	return sysRet(0)
}

func (k *Kernel) sysGetrandom(t *Task, args [6]uint64) sysResult {
	count := args[1]
	if count > 256 {
		count = 256
	}
	var random [256]byte
	buf := random[:count]
	for i := range buf {
		if i%8 == 0 {
			k.nextRand()
		}
		buf[i] = byte(k.randState >> (8 * (uint(i) % 8)))
	}
	if err := t.WriteAt(args[0], buf); err != nil {
		return sysErr(EFAULT)
	}
	t.CPU.Cycles += k.Costs.CopyCost(len(buf))
	return sysRet(int64(len(buf)))
}

// sysPath1 adapts single-path fs operations.
func (k *Kernel) sysPath1(t *Task, args [6]uint64, op func(string) error) sysResult {
	path, ok := k.readPath(t, args[0])
	if !ok {
		return sysErr(EFAULT)
	}
	if err := op(path); err != nil {
		return sysErr(fsErrno(err))
	}
	return sysRet(0)
}

// sysPath2 adapts two-path fs operations (rename).
func (k *Kernel) sysPath2(t *Task, args [6]uint64, op func(string, string) error) sysResult {
	p1, ok := k.readPath(t, args[0])
	if !ok {
		return sysErr(EFAULT)
	}
	p2, ok := k.readPath(t, args[1])
	if !ok {
		return sysErr(EFAULT)
	}
	if err := op(p1, p2); err != nil {
		return sysErr(fsErrno(err))
	}
	return sysRet(0)
}

// sysPathPerm adapts path+mode fs operations (mkdir, chmod).
func (k *Kernel) sysPathPerm(t *Task, args [6]uint64, op func(string, fs.Mode) error) sysResult {
	path, ok := k.readPath(t, args[0])
	if !ok {
		return sysErr(EFAULT)
	}
	if err := op(path, fs.Mode(args[1])); err != nil {
		return sysErr(fsErrno(err))
	}
	return sysRet(0)
}

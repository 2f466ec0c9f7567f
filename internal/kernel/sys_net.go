package kernel

import (
	"encoding/binary"
	"errors"

	"lazypoline/internal/netstack"
)

// sockaddr layout (simplified sockaddr_in): family u16, port u16
// big-endian, addr u32. Our guests always bind 0.0.0.0.
const sockaddrSize = 8

func (k *Kernel) sysBind(t *Task, args [6]uint64) sysResult {
	fd, ok := t.Files.Get(int(args[0]))
	if !ok || fd.Kind != FDSocket {
		return sysErr(EBADF)
	}
	var sa [sockaddrSize]byte
	if err := t.ReadAt(args[1], sa[:]); err != nil {
		return sysErr(EFAULT)
	}
	// Record the requested port in the FD until listen().
	fd.boundPort = binary.BigEndian.Uint16(sa[2:4])
	fd.bound = true
	return sysRet(0)
}

func (k *Kernel) sysListen(t *Task, args [6]uint64) sysResult {
	fd, ok := t.Files.Get(int(args[0]))
	if !ok || fd.Kind != FDSocket || !fd.bound {
		return sysErr(EBADF)
	}
	if fd.Listener != nil {
		return sysRet(0)
	}
	l, err := k.Net.Listen(fd.boundPort, int(args[1]))
	if err != nil {
		if errors.Is(err, netstack.ErrAddrInUse) {
			return sysErr(EADDRINUSE)
		}
		return sysErr(EINVAL)
	}
	fd.Kind = FDListener
	fd.Listener = l
	t.Files.ver++ // the fd now names a listener: cached epoll misses on it are void
	return sysRet(0)
}

func (k *Kernel) sysAccept(t *Task, args [6]uint64) sysResult {
	fd, ok := t.Files.Get(int(args[0]))
	if !ok || fd.Kind != FDListener || fd.Listener == nil {
		return sysErr(EBADF)
	}
	if !t.Files.Room(1) {
		return sysErr(EMFILE) // before a connection is taken off the queue
	}
	conn, err := fd.Listener.Accept()
	if errors.Is(err, netstack.ErrWouldBlock) {
		if fd.Nonblock {
			return sysErr(EAGAIN)
		}
		return t.block(blockedState{kind: waitPollable, obj: fd.Listener, want: netstack.ReadyIn | netstack.ReadyHup})
	}
	if err != nil {
		return sysErr(EBADF)
	}
	// accept4's SOCK_NONBLOCK flag (0x800) applies to the new socket.
	nonblock := args[3]&ONonblock != 0
	nfd := t.Files.Alloc(&FD{Kind: FDSocket, Sock: conn, Nonblock: nonblock})
	return sysRet(int64(nfd))
}

func (k *Kernel) sysEpollCtl(t *Task, args [6]uint64) sysResult {
	ep, ok := t.Files.Get(int(args[0]))
	if !ok || ep.Kind != FDEpoll {
		return sysErr(EBADF)
	}
	if _, ok := t.Files.Get(int(args[2])); !ok {
		return sysErr(EBADF)
	}
	// args[3] points to struct epoll_event { events u32; data u64 }; we
	// use the fd itself as data, so only events is read.
	var events uint32 = EpollIn
	if args[3] != 0 {
		var buf [4]byte
		if err := t.ReadAt(args[3], buf[:]); err != nil {
			return sysErr(EFAULT)
		}
		events = binary.LittleEndian.Uint32(buf[:])
	}
	if err := ep.Epoll.Ctl(int(args[1]), int(args[2]), events); err != nil {
		return sysErr(EINVAL)
	}
	return sysRet(0)
}

// EpollEventSize is the guest layout of struct epoll_event: events u32,
// pad u32, data u64 (the watched fd).
const EpollEventSize = 16

func (k *Kernel) sysEpollWait(t *Task, args [6]uint64) sysResult {
	ep, ok := t.Files.Get(int(args[0]))
	if !ok || ep.Kind != FDEpoll {
		return sysErr(EBADF)
	}
	maxEvents := int(args[2])
	if maxEvents <= 0 {
		return sysErr(EINVAL)
	}
	// The guests ask for 16 events; up to that many are collected on the
	// stack, more spill to the heap.
	var events [16]epollEvent
	ready := k.epollReady(t, ep.Epoll, maxEvents, events[:0])
	if len(ready) == 0 {
		timeout := int64(args[3])
		if timeout == 0 {
			return sysRet(0)
		}
		// Block until anything in the watch set is ready. (Timeouts other
		// than 0 and -1 behave as infinite; our guests use -1.)
		return t.block(blockedState{kind: waitEpoll, epoll: ep.Epoll})
	}
	// Every byte of a record is written: the staging memory is not zeroed.
	buf := t.ioBuf(len(ready) * EpollEventSize)
	for i, ev := range ready {
		rec := buf[i*EpollEventSize:]
		binary.LittleEndian.PutUint32(rec[0:], ev.events)
		binary.LittleEndian.PutUint32(rec[4:], 0) // padding
		binary.LittleEndian.PutUint64(rec[8:], uint64(ev.fd))
	}
	if err := t.WriteAt(args[1], buf); err != nil {
		return sysErr(EFAULT)
	}
	return sysRet(int64(len(ready)))
}

type epollEvent struct {
	fd     int
	events uint32
}

// epollReady polls the watch set against current readiness and appends
// the ready events to out (callers pass a stack-backed slice, so a poll
// allocates nothing). The watch set is walked in ascending fd order, the
// order Epoll keeps it in: any other order would return ready events —
// and hence the guest's connection-handling order — differently from run
// to run, breaking determinism on loaded multi-connection cells.
//
// A watch whose cached miss still holds is skipped without a lookup or
// a poll: it could only miss again. A miss is cached only when its poll
// was settled, so a skipped poll would have changed nothing.
func (k *Kernel) epollReady(t *Task, ep *Epoll, limit int, out []epollEvent) []epollEvent {
	files := t.Files
	filesVer := files.ver // before any lookup, as an object's version is read before its poll
	for i := range ep.watches {
		w := &ep.watches[i]
		if w.missHolds(files, filesVer) {
			continue
		}
		fd, want := w.fd, w.events
		f, ok := files.Get(fd)
		var obj netstack.Pollable
		switch {
		case !ok: // nothing at fd: a miss until the table moves
		case f.Kind == FDListener && f.Listener != nil:
			obj = f.Listener
		case f.Kind == FDSocket && f.Sock != nil:
			obj = f.Sock
		case f.Kind == FDFile, f.Kind == FDConsole:
			// Regular files are always ready.
			out = append(out, epollEvent{fd: fd, events: want & (EpollIn | EpollOut)})
			continue
		}
		var ev uint32
		var objVer uint64
		settled := true
		if obj != nil {
			var r netstack.Readiness
			r, objVer, settled = obj.Poll()
			if want&EpollIn != 0 && r&netstack.ReadyIn != 0 {
				ev |= EpollIn
			}
			if want&EpollOut != 0 && r&netstack.ReadyOut != 0 {
				ev |= EpollOut
			}
			if r&netstack.ReadyHup != 0 {
				ev |= EpollHup
			}
		}
		if ev == 0 {
			if settled {
				w.missFiles, w.missFilesVer, w.missObj, w.missObjVer = files, filesVer, obj, objVer
			}
			continue
		}
		out = append(out, epollEvent{fd: fd, events: ev})
		if len(out) >= limit {
			break
		}
	}
	return out
}

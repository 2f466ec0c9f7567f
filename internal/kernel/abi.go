// Package kernel implements the simulated operating system kernel: tasks
// and scheduling, the syscall table, the syscall entry path with its
// interception hooks (ptrace, seccomp, Syscall User Dispatch), POSIX
// signal delivery and sigreturn, and the cycle cost model that every
// interposition mechanism in this repository is measured against.
package kernel

import (
	"fmt"
	"strings"
)

// Syscall numbers follow the Linux x86-64 ABI so that guest programs and
// traces read like the real thing.
const (
	SysRead          = 0
	SysWrite         = 1
	SysOpen          = 2
	SysClose         = 3
	SysStat          = 4
	SysFstat         = 5
	SysLseek         = 8
	SysMmap          = 9
	SysMprotect      = 10
	SysMunmap        = 11
	SysBrk           = 12
	SysRtSigaction   = 13
	SysRtSigprocmask = 14
	SysRtSigreturn   = 15
	SysIoctl         = 16
	SysAccess        = 21
	SysSchedYield    = 24
	SysDup           = 32
	SysDup2          = 33
	SysNanosleep     = 35
	SysGetpid        = 39
	SysSendfile      = 40
	SysSocket        = 41
	SysAccept        = 43
	SysSendto        = 44
	SysRecvfrom      = 45
	SysShutdown      = 48
	SysBind          = 49
	SysListen        = 50
	SysClone         = 56
	SysFork          = 57
	SysVfork         = 58
	SysExecve        = 59
	SysExit          = 60
	SysWait4         = 61
	SysKill          = 62
	SysGetcwd        = 79
	SysRename        = 82
	SysMkdir         = 83
	SysRmdir         = 84
	SysUnlink        = 87
	SysChmod         = 90
	SysPtrace        = 101
	SysPrctl         = 157
	SysArchPrctl     = 158
	SysGettid        = 186
	SysFutex         = 202
	SysGetdents64    = 217
	SysSetTidAddress = 218
	SysExitGroup     = 231
	SysEpollWait     = 232
	SysEpollCtl      = 233
	SysTgkill        = 234
	SysOpenat        = 257
	SysSetRobustList = 273
	SysUtimensat     = 280
	SysAccept4       = 288
	SysEpollCreate1  = 291
	SysPipe2         = 293
	SysSeccomp       = 317
	SysGetrandom     = 318

	// MaxSyscallNr bounds the dispatch table; the zpoline nop sled covers
	// [0, MaxSyscallNr]. The microbenchmark uses NonexistentSyscall, which
	// lies inside the sled but outside the implemented table, exactly like
	// syscall 500 in the paper.
	MaxSyscallNr = 511
	// NonexistentSyscall is the paper's "syscall number 500".
	NonexistentSyscall = 500
)

// syscallRow is one row of the syscall table.
type syscallRow struct {
	name string
	fn   func(*Kernel, *Task, [6]uint64) sysResult
	// noReturn: the call never returns (the task is gone or its context
	// replaced); a failed execve returns.
	noReturn bool
	// retryable: POSIX lets the call fail with EINTR or EAGAIN and the
	// guests retry it, so the chaos engine may inject one (chaosSyscall).
	retryable bool
}

// syscallTable is the syscall ABI, indexed by number: adding a syscall
// is one const above and one row here.
var syscallTable = [MaxSyscallNr + 1]syscallRow{
	SysRead:          {name: "read", fn: (*Kernel).sysRead, retryable: true},
	SysWrite:         {name: "write", fn: (*Kernel).sysWrite, retryable: true},
	SysOpen:          {name: "open", fn: (*Kernel).sysOpen},
	SysClose:         {name: "close", fn: (*Kernel).sysClose},
	SysStat:          {name: "stat", fn: (*Kernel).sysStat},
	SysFstat:         {name: "fstat", fn: (*Kernel).sysFstat},
	SysLseek:         {name: "lseek", fn: (*Kernel).sysLseek},
	SysMmap:          {name: "mmap", fn: (*Kernel).sysMmap},
	SysMprotect:      {name: "mprotect", fn: (*Kernel).sysMprotect},
	SysMunmap:        {name: "munmap", fn: (*Kernel).sysMunmap},
	SysBrk:           {name: "brk", fn: (*Kernel).sysIgnored},
	SysRtSigaction:   {name: "rt_sigaction", fn: (*Kernel).sysRtSigaction},
	SysRtSigprocmask: {name: "rt_sigprocmask", fn: (*Kernel).sysRtSigprocmask},
	SysRtSigreturn:   {name: "rt_sigreturn", fn: (*Kernel).sysRtSigreturn, noReturn: true},
	SysIoctl:         {name: "ioctl", fn: (*Kernel).sysIgnored},
	SysAccess:        {name: "access", fn: (*Kernel).sysAccess},
	SysSchedYield:    {name: "sched_yield", fn: (*Kernel).sysIgnored},
	SysDup:           {name: "dup", fn: (*Kernel).sysDup},
	SysDup2:          {name: "dup2", fn: (*Kernel).sysDup2},
	SysNanosleep:     {name: "nanosleep", fn: (*Kernel).sysNanosleep, retryable: true},
	SysGetpid:        {name: "getpid", fn: (*Kernel).sysGetpid},
	SysSendfile:      {name: "sendfile", fn: (*Kernel).sysSendfile, retryable: true},
	SysSocket:        {name: "socket", fn: (*Kernel).sysSocket},
	SysAccept:        {name: "accept", fn: (*Kernel).sysAccept, retryable: true},
	SysSendto:        {name: "sendto", fn: (*Kernel).sysWrite, retryable: true},
	SysRecvfrom:      {name: "recvfrom", fn: (*Kernel).sysRead, retryable: true},
	SysShutdown:      {name: "shutdown", fn: (*Kernel).sysIgnored},
	SysBind:          {name: "bind", fn: (*Kernel).sysBind},
	SysListen:        {name: "listen", fn: (*Kernel).sysListen},
	SysClone:         {name: "clone", fn: (*Kernel).sysClone},
	SysFork:          {name: "fork", fn: (*Kernel).sysFork},
	SysVfork:         {name: "vfork", fn: (*Kernel).sysFork},
	SysExecve:        {name: "execve", fn: (*Kernel).sysExecve},
	SysExit:          {name: "exit", fn: (*Kernel).sysExit, noReturn: true},
	SysWait4:         {name: "wait4", fn: (*Kernel).sysWait4},
	SysKill:          {name: "kill", fn: (*Kernel).sysKill},
	SysGetcwd:        {name: "getcwd", fn: (*Kernel).sysGetcwd},
	SysRename:        {name: "rename", fn: (*Kernel).sysRename},
	SysMkdir:         {name: "mkdir", fn: (*Kernel).sysMkdir},
	SysRmdir:         {name: "rmdir", fn: (*Kernel).sysRmdir},
	SysUnlink:        {name: "unlink", fn: (*Kernel).sysUnlink},
	SysChmod:         {name: "chmod", fn: (*Kernel).sysChmod},
	SysPtrace:        {name: "ptrace", fn: (*Kernel).sysPtrace},
	SysPrctl:         {name: "prctl", fn: (*Kernel).sysPrctl},
	SysArchPrctl:     {name: "arch_prctl", fn: (*Kernel).sysArchPrctl},
	SysGettid:        {name: "gettid", fn: (*Kernel).sysGettid},
	SysFutex:         {name: "futex", fn: (*Kernel).sysIgnored},
	SysGetdents64:    {name: "getdents64", fn: (*Kernel).sysGetdents64},
	SysSetTidAddress: {name: "set_tid_address", fn: (*Kernel).sysSetTidAddress},
	SysExitGroup:     {name: "exit_group", fn: (*Kernel).sysExitGroup, noReturn: true},
	SysEpollWait:     {name: "epoll_wait", fn: (*Kernel).sysEpollWait},
	SysEpollCtl:      {name: "epoll_ctl", fn: (*Kernel).sysEpollCtl},
	SysTgkill:        {name: "tgkill", fn: (*Kernel).sysTgkill},
	SysOpenat:        {name: "openat", fn: (*Kernel).sysOpenat},
	SysSetRobustList: {name: "set_robust_list", fn: (*Kernel).sysSetRobustList},
	SysUtimensat:     {name: "utimensat", fn: (*Kernel).sysUtimensat},
	SysAccept4:       {name: "accept4", fn: (*Kernel).sysAccept, retryable: true},
	SysEpollCreate1:  {name: "epoll_create1", fn: (*Kernel).sysEpollCreate1},
	SysPipe2:         {name: "pipe2", fn: (*Kernel).sysPipe2},
	SysSeccomp:       {name: "seccomp", fn: (*Kernel).sysSeccomp},
	SysGetrandom:     {name: "getrandom", fn: (*Kernel).sysGetrandom},
}

// SyscallName returns a human-readable name for tracing.
func SyscallName(nr int64) string {
	if uint64(nr) <= MaxSyscallNr && syscallTable[nr].name != "" {
		return syscallTable[nr].name
	}
	return "unknown"
}

// SyscallNumbers returns every named syscall number, sorted — the
// universe policy profiles draw their alphabets from.
func SyscallNumbers() []int64 {
	var out []int64
	for nr, s := range &syscallTable {
		if s.name != "" {
			out = append(out, int64(nr))
		}
	}
	return out
}

// SyscallReturns reports whether syscall nr can return to its caller:
// false only for exit, exit_group and rt_sigreturn (DESIGN.md §6).
func SyscallReturns(nr int64) bool {
	return uint64(nr) > MaxSyscallNr || !syscallTable[nr].noReturn
}

// AsmPrelude is the assembler prelude generated from the syscall table:
// `.equ SYS_<name> <nr>` for every syscall, then the open flags.
var AsmPrelude = func() string {
	var b strings.Builder
	for nr, s := range &syscallTable {
		if s.name != "" {
			fmt.Fprintf(&b, "\t.equ SYS_%s %d\n", s.name, nr)
		}
	}
	fmt.Fprintf(&b, "\t.equ O_RDONLY %#x\n\t.equ O_WRONLY %#x\n\t.equ O_RDWR %#x\n\t.equ O_CREAT %#x\n"+
		"\t.equ O_EXCL %#x\n\t.equ O_TRUNC %#x\n\t.equ O_APPEND %#x\n\t.equ O_NONBLOCK %#x\n",
		ORdonly, OWronly, ORdwr, OCreat, OExcl, OTrunc, OAppend, ONonblock)
	return b.String()
}()

// Errno values (returned as -errno in RAX, Linux style).
const (
	EPERM        = 1
	ENOENT       = 2
	ESRCH        = 3
	EINTR        = 4
	EBADF        = 9
	ECHILD       = 10
	EAGAIN       = 11
	ENOMEM       = 12
	EACCES       = 13
	EFAULT       = 14
	EBUSY        = 16
	EEXIST       = 17
	ENOTDIR      = 20
	EISDIR       = 21
	EINVAL       = 22
	EMFILE       = 24
	EFBIG        = 27
	ENOSYS       = 38
	ENAMETOOLONG = 36
	ENOTEMPTY    = 39
	EPIPE        = 32
	EROFS        = 30
	EADDRINUSE   = 98
	ECONNRESET   = 104
	ECONNREFUSED = 111
)

var errnoNames = [...]string{
	EPERM: "EPERM", ENOENT: "ENOENT", ESRCH: "ESRCH", EINTR: "EINTR",
	EBADF: "EBADF", ECHILD: "ECHILD", EAGAIN: "EAGAIN", ENOMEM: "ENOMEM",
	EACCES: "EACCES", EFAULT: "EFAULT", EBUSY: "EBUSY", EEXIST: "EEXIST",
	ENOTDIR: "ENOTDIR", EISDIR: "EISDIR", EINVAL: "EINVAL", EMFILE: "EMFILE", EFBIG: "EFBIG",
	ENOSYS: "ENOSYS", ENAMETOOLONG: "ENAMETOOLONG", ENOTEMPTY: "ENOTEMPTY",
	EPIPE: "EPIPE", EROFS: "EROFS", EADDRINUSE: "EADDRINUSE", ECONNRESET: "ECONNRESET",
	ECONNREFUSED: "ECONNREFUSED",
}

// ErrnoName returns the symbolic name for a (positive) errno value, or
// "" when the value is not one the simulated kernel ever produces.
func ErrnoName(errno int64) string {
	if uint64(errno) < uint64(len(errnoNames)) {
		return errnoNames[errno]
	}
	return ""
}

// SaRestart is the SA_RESTART sigaction flag: syscalls interrupted by
// this handler are transparently restarted instead of failing with
// -EINTR (the restart-semantics pitfall interposers must reproduce).
const SaRestart = 0x10000000

// Signals (subset).
const (
	SIGHUP  = 1
	SIGINT  = 2
	SIGQUIT = 3
	SIGILL  = 4
	SIGTRAP = 5
	SIGABRT = 6
	SIGKILL = 9
	SIGUSR1 = 10
	SIGSEGV = 11
	SIGUSR2 = 12
	SIGPIPE = 13
	SIGALRM = 14
	SIGTERM = 15
	SIGCHLD = 17
	SIGSYS  = 31

	// NumSignals bounds the handler tables.
	NumSignals = 32
)

var signalNames = [NumSignals]string{
	SIGHUP: "SIGHUP", SIGINT: "SIGINT", SIGQUIT: "SIGQUIT", SIGILL: "SIGILL",
	SIGTRAP: "SIGTRAP", SIGABRT: "SIGABRT", SIGKILL: "SIGKILL",
	SIGUSR1: "SIGUSR1", SIGSEGV: "SIGSEGV", SIGUSR2: "SIGUSR2",
	SIGPIPE: "SIGPIPE", SIGALRM: "SIGALRM", SIGTERM: "SIGTERM",
	SIGCHLD: "SIGCHLD", SIGSYS: "SIGSYS",
}

// SignalName names a signal for traces.
func SignalName(sig int) string {
	if uint(sig) < NumSignals && signalNames[sig] != "" {
		return signalNames[sig]
	}
	return "SIG?"
}

// Signal handler dispositions.
const (
	// SigDfl is the default action.
	SigDfl uint64 = 0
	// SigIgn ignores the signal.
	SigIgn uint64 = 1
)

// SIGSYS si_code values.
const (
	// SysSeccompCode is SYS_SECCOMP: raised by a seccomp RET_TRAP filter.
	SysSeccompCode = 1
	// SysUserDispatch is SYS_USER_DISPATCH: raised by SUD.
	SysUserDispatch = 2
)

// prctl operations.
const (
	// PrSetSyscallUserDispatch configures SUD (PR_SET_SYSCALL_USER_DISPATCH).
	PrSetSyscallUserDispatch = 59
	// PrSysDispatchOff / PrSysDispatchOn are the prctl arg2 values.
	PrSysDispatchOff = 0
	PrSysDispatchOn  = 1

	// PrSetSyscallPrivilege configures the privilege-region policy layer
	// (this simulator's analogue of the "syscall as a privilege" prctl
	// API; not a Linux number). arg2 selects the operation below. With
	// the policy layer off the whole operation is -EINVAL, exactly like
	// any other unknown prctl.
	PrSetSyscallPrivilege = 71
	// PrPrivilegeAdd registers [arg3, arg3+arg4) as syscall-privileged.
	// Fails with -EPERM once the task's region set has sealed.
	PrPrivilegeAdd = 1
	// PrPrivilegeSeal seals the region set immediately (snapshotting the
	// currently executable mappings), instead of waiting for the lazy
	// seal at the next non-policy syscall.
	PrPrivilegeSeal = 2
)

// SUD selector byte values (from the Linux uapi).
const (
	// SyscallDispatchFilterAllow lets syscalls through.
	SyscallDispatchFilterAllow = 0
	// SyscallDispatchFilterBlock raises SIGSYS.
	SyscallDispatchFilterBlock = 1
)

// arch_prctl operations.
const (
	ArchSetGs = 0x1001
	ArchSetFs = 0x1002
	ArchGetFs = 0x1003
	ArchGetGs = 0x1004
)

// clone flags (subset).
const (
	CloneVM      = 0x00000100
	CloneFS      = 0x00000200
	CloneFiles   = 0x00000400
	CloneSighand = 0x00000800
	CloneThread  = 0x00010000
)

// mmap protection and flag bits (subset of the Linux ABI).
const (
	ProtReadBit  = 0x1
	ProtWriteBit = 0x2
	ProtExecBit  = 0x4

	MapFixedBit = 0x10
	MapAnonBit  = 0x20
)

// Open flag bits (subset of the Linux ABI).
const (
	ORdonly = 0x0
	OWronly = 0x1
	ORdwr   = 0x2
	OCreat  = 0x40
	OExcl   = 0x80
	OTrunc  = 0x200
	OAppend = 0x400
	// ONonblock marks a socket/file as non-blocking.
	ONonblock = 0x800
)

// UContext layout: the register snapshot the kernel writes to the user
// stack on signal delivery and reads back on rt_sigreturn. Interposers
// (notably lazypoline's SIGSYS slow path) modify this in guest memory;
// the paper calls the key field REG_RIP.
const (
	// UCGRegs is the offset of the 16 general purpose registers.
	UCGRegs = 0
	// UCRip is the offset of the saved instruction pointer (REG_RIP).
	UCRip = 128
	// UCEflags is the offset of the saved flags.
	UCEflags = 136
	// UCGsbase is the offset of the saved %gs base.
	UCGsbase = 144
	// UCSigmask is the offset of the saved signal mask.
	UCSigmask = 152
	// UCXState is the offset of the saved extended state.
	UCXState = 160
	// UCPkru is the offset of the saved PKRU value, stored inside the
	// extended-state area exactly as x86 XSAVE does: a signal frame
	// captures the protection-key rights and rt_sigreturn restores them.
	UCPkru = UCXState + 488
	// UContextSize is the total size (160 + 512).
	UContextSize = 672
)

// UCReg returns the ucontext offset of general purpose register r.
func UCReg(r int) uint64 { return UCGRegs + 8*uint64(r) }

// SigInfo layout (simplified siginfo_t).
const (
	// SISigno is the signal number.
	SISigno = 0
	// SICode is the si_code (SYS_SECCOMP / SYS_USER_DISPATCH for SIGSYS).
	SICode = 8
	// SISyscall is the syscall number (SIGSYS only).
	SISyscall = 16
	// SICallAddr is the address of the faulting/trapping instruction.
	SICallAddr = 24
	// SigInfoSize is the total size.
	SigInfoSize = 32
)

// VdsoBase is where the kernel maps its signal-return stub ("[vdso]").
// The stub ends in a SYSCALL instruction, which is why a typical SUD
// deployment must allowlist this address range — and why lazypoline's
// selector-only design is notable for NOT needing to. It sits below 4 GiB
// so seccomp filters can range-check it with 32-bit compares, and far
// from guest images so it never merges with their mappings.
const VdsoBase = 0xFF00_0000

// VdsoSigreturnOffset is the offset of the sigreturn stub in the vdso.
const VdsoSigreturnOffset = 0

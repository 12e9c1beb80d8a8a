package kernel

import (
	"fmt"
	"testing"

	"crashresist/internal/asm"
	"crashresist/internal/bin"
	"crashresist/internal/isa"
	"crashresist/internal/vm"
)

// specHarness is a started Linux process whose main thread issues
// syscalls straight into the kernel, with one of every descriptor kind a
// Table I syscall needs already open and a scratch region holding valid
// arguments (NUL-terminated paths, buffers, a msghdr, an epoll event).
type specHarness struct {
	p *vm.Process
	k *Kernel
	t *vm.Thread

	file, sock, conn, epfd uint64
	listener               uint64
	path, path2            uint64 // existing file "f", fresh name "g"
	buf, hdr, event, addr  uint64
}

// unmappedArg is a pointer value no harness mapping covers: the user
// arena starts at 1<<32.
const unmappedArg = 0xdead0000

func newSpecHarness(t *testing.T) *specHarness {
	t.Helper()
	p, k := buildLinuxProc(t, func(b *asm.Builder) {
		b.Func("main").Entry("main")
		b.MovRI(isa.R1, 0)
		emitSyscall(b, SysExit)
		b.EndFunc()
		b.BSS("scratch", 256)
	})
	th, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	var exe *bin.Module
	for _, m := range p.Modules() {
		if m.Image.Kind == bin.KindExecutable {
			exe = m
		}
	}
	base := exe.VA(exe.Image.BSSStart())
	h := &specHarness{p: p, k: k, t: th,
		path: base, path2: base + 16, buf: base + 64, hdr: base + 128, event: base + 160, addr: base + 192}
	for _, w := range []struct {
		at   uint64
		data []byte
	}{
		{h.path, []byte("f\x00")},
		{h.path2, []byte("g\x00")},
		{h.buf, []byte("data")},
	} {
		if err := p.AS.Write(w.at, w.data); err != nil {
			t.Fatal(err)
		}
	}
	// msghdr {buf, len} and an epoll event {events, data}.
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(p.AS.WriteUint(h.hdr, 8, h.buf))
	must(p.AS.WriteUint(h.hdr+8, 8, 4))
	must(p.AS.WriteUint(h.event, 4, 1))
	must(p.AS.WriteUint(h.event+8, 8, 7))

	k.AddFile("f", []byte("file contents"))
	h.file = h.ok(t, SysOpen, h.path, 0)
	h.listener = h.ok(t, SysSocket)
	h.ok(t, SysBind, h.listener, 80)
	h.ok(t, SysListen, h.listener)
	cc, err := k.Connect(80)
	if err != nil {
		t.Fatal(err)
	}
	cc.Send([]byte("pending client bytes"))
	h.conn = h.ok(t, SysAccept, h.listener, 0)
	h.sock = h.ok(t, SysSocket)
	h.epfd = h.ok(t, SysEpollCreate)
	return h
}

// call dispatches one syscall on the main thread and returns R0.
func (h *specHarness) call(num uint64, args ...uint64) uint64 {
	h.t.Regs[0] = num
	for i := 0; i < 5; i++ {
		h.t.Regs[1+i] = 0
		if i < len(args) {
			h.t.Regs[1+i] = args[i]
		}
	}
	h.k.Syscall(h.p, h.t)
	return h.t.Reg(0)
}

// ok is call for setup steps, failing the test on an error return.
func (h *specHarness) ok(t *testing.T, num uint64, args ...uint64) uint64 {
	t.Helper()
	ret := h.call(num, args...)
	if int64(ret) < 0 {
		t.Fatalf("setup syscall %d%v = %d", num, args, int64(ret))
	}
	return ret
}

// validArgs returns an argument vector for num that the kernel accepts
// without touching the EFAULT path; false when no recipe exists.
func (h *specHarness) validArgs(num uint64) ([]uint64, bool) {
	switch num {
	case SysRead:
		return []uint64{h.file, h.buf, 4}, true
	case SysWrite:
		return []uint64{h.file, h.buf, 4}, true
	case SysOpen:
		return []uint64{h.path, 0}, true
	case SysConnect:
		return []uint64{h.sock, h.addr, 16}, true
	case SysRecv:
		return []uint64{h.conn, h.buf, 4, 0}, true
	case SysRecvfrom:
		return []uint64{h.conn, h.buf, 4, h.addr}, true
	case SysSend:
		return []uint64{h.conn, h.buf, 4}, true
	case SysSendmsg:
		return []uint64{h.conn, h.hdr}, true
	case SysEpollCtl:
		return []uint64{h.epfd, EpollCtlAdd, h.conn, h.event}, true
	case SysEpollWait:
		return []uint64{h.epfd, h.event, 1, 0}, true
	case SysChmod, SysMkdir, SysUnlink, SysAccess:
		return []uint64{h.path}, true
	case SysSymlink:
		return []uint64{h.path, h.path2}, true
	case SysClose:
		return []uint64{h.file}, true
	case SysSocket, SysEpollCreate, SysGetpid:
		return []uint64{}, true
	case SysBind:
		return []uint64{h.sock, 81}, true
	case SysListen:
		return []uint64{h.sock}, true
	case SysAccept:
		return []uint64{h.listener, 0}, true
	case SysSigaction:
		return []uint64{2, h.buf}, true
	case SysNanosleep:
		return []uint64{1}, true
	}
	return nil, false
}

// TestSpecEFAULTConformance checks the static spec table against the
// kernel's behaviour: for every EFAULT-capable row and each of its pointer
// arguments, an unmapped pointer — with every other argument valid —
// returns -EFAULT and leaves the process running. The same call with the
// pointer valid must not return -EFAULT, so the verdict is the pointer's.
func TestSpecEFAULTConformance(t *testing.T) {
	for _, spec := range Specs() {
		if !spec.CanEFAULT {
			continue
		}
		if len(spec.PtrArgs) == 0 {
			t.Errorf("%s: EFAULT-capable row lists no pointer arguments", spec.Name)
		}
		for _, pa := range spec.PtrArgs {
			t.Run(fmt.Sprintf("%s/arg%d", spec.Name, pa.Index), func(t *testing.T) {
				h := newSpecHarness(t)
				args, ok := h.validArgs(spec.Num)
				if !ok {
					t.Fatalf("no valid-argument recipe for %s", spec.Name)
				}
				if ret := h.call(spec.Num, args...); int64(ret) == -EFAULT {
					t.Fatalf("valid arguments already return -EFAULT")
				}

				h = newSpecHarness(t)
				args, _ = h.validArgs(spec.Num)
				args[pa.Index] = unmappedArg
				if ret := h.call(spec.Num, args...); int64(ret) != -EFAULT {
					t.Errorf("unmapped pointer: ret = %d, want -EFAULT", int64(ret))
				}
				if !h.p.Alive() || h.p.Crash != nil {
					t.Errorf("process state %v crash %v after the EFAULT return, want running", h.p.State, h.p.Crash)
				}
				if got := h.k.Counts().EFAULTReturns; got != 1 {
					t.Errorf("kernel counted %d EFAULT returns, want 1", got)
				}
			})
		}
	}
}

// TestSpecNoEFAULTConformance is the other half: a row that is not
// EFAULT-capable never returns -EFAULT, whichever argument position
// carries an unmapped pointer (the others valid). exit and exit_thread are
// left out because they end the process or thread the harness issues its
// calls from, and spawn_thread because it starts a thread at its
// argument: an unmapped entry faults in the new thread, after the
// syscall has returned.
func TestSpecNoEFAULTConformance(t *testing.T) {
	for _, spec := range Specs() {
		switch spec.Num {
		case SysExit, SysExitThread, SysSpawnThread:
			continue
		}
		if spec.CanEFAULT {
			continue
		}
		for i := 0; i < 5; i++ {
			t.Run(fmt.Sprintf("%s/arg%d", spec.Name, i), func(t *testing.T) {
				h := newSpecHarness(t)
				args, ok := h.validArgs(spec.Num)
				if !ok {
					t.Fatalf("no valid-argument recipe for %s", spec.Name)
				}
				args = append(args, make([]uint64, 5-len(args))...)
				args[i] = unmappedArg
				if ret := h.call(spec.Num, args...); int64(ret) == -EFAULT {
					t.Errorf("unmapped pointer in arg%d: ret = -EFAULT from a row that cannot EFAULT", i)
				}
				if got := h.k.Counts().EFAULTReturns; got != 0 {
					t.Errorf("kernel counted %d EFAULT returns, want 0", got)
				}
			})
		}
	}
}

package taint

import (
	"testing"
	"testing/quick"

	"crashresist/internal/asm"
	"crashresist/internal/bin"
	"crashresist/internal/isa"
	"crashresist/internal/kernel"
	"crashresist/internal/vm"
)

func TestLabelMask(t *testing.T) {
	if LabelMask(0) != 0 {
		t.Error("label 0 must have no mask")
	}
	if LabelMask(1) != 2 {
		t.Errorf("LabelMask(1) = %#x", LabelMask(1))
	}
	if LabelMask(63) != 1<<63 {
		t.Errorf("LabelMask(63) = %#x", LabelMask(63))
	}
	if LabelMask(64) != 0 {
		t.Error("label above MaxLabel must have no mask")
	}
	if LabelMask(5)&LabelMask(6) != 0 {
		t.Error("distinct labels share a mask bit")
	}
}

func TestMarkAndMemTaint(t *testing.T) {
	e := New()
	e.MarkMem(3, 0x1000, 4)
	if got := e.MemTaint(0x1000, 4); got != LabelMask(3) {
		t.Errorf("MemTaint = %#x", got)
	}
	if got := e.MemTaint(0x1004, 4); got != 0 {
		t.Errorf("adjacent bytes tainted: %#x", got)
	}
	e.MarkMem(5, 0x1002, 4)
	if got := e.MemTaint(0x1000, 8); got != LabelMask(3)|LabelMask(5) {
		t.Errorf("union = %#x", got)
	}
	// Label 0 and out-of-range labels are no-ops.
	e.MarkMem(0, 0x2000, 4)
	e.MarkMem(64, 0x2000, 4)
	if e.MemTaint(0x2000, 4) != 0 {
		t.Error("label 0/64 should not taint")
	}
}

func TestClearMem(t *testing.T) {
	e := New()
	e.MarkMem(1, 0x1000, 8)
	e.ClearMem(0x1002, 2)
	if e.MemTaint(0x1002, 2) != 0 {
		t.Error("cleared bytes still tainted")
	}
	if e.MemTaint(0x1000, 2) == 0 || e.MemTaint(0x1004, 4) == 0 {
		t.Error("neighbours lost taint")
	}
}

func TestLoadStorePropagation(t *testing.T) {
	e := New()
	e.MarkMem(7, 0x1000, 8)
	e.LoadMem(0, isa.R1, 0x1000, 8)
	if e.RegTaint(0, isa.R1) != LabelMask(7) {
		t.Error("load did not pick up taint")
	}
	e.StoreMem(0, isa.R1, 0x2000, 8)
	if e.MemTaint(0x2000, 8) != LabelMask(7) {
		t.Error("store did not write taint")
	}
}

func TestByteGranularity(t *testing.T) {
	e := New()
	// Taint only byte 2 of an 8-byte word.
	e.MarkMem(4, 0x1002, 1)
	e.LoadMem(0, isa.R1, 0x1000, 8)
	if e.RegTaint(0, isa.R1) != LabelMask(4) {
		t.Error("whole-register union missing byte taint")
	}
	// Store back only the low 2 bytes: the tainted lane (2) is not
	// included, so the destination stays clean.
	e.StoreMem(0, isa.R1, 0x2000, 2)
	if e.MemTaint(0x2000, 2) != 0 {
		t.Error("byte lanes not preserved through load/store")
	}
	// Storing 4 bytes includes lane 2.
	e.StoreMem(0, isa.R1, 0x3000, 4)
	if e.MemTaint(0x3000, 4) != LabelMask(4) {
		t.Error("lane 2 taint lost on 4-byte store")
	}
	if e.MemTaint(0x3002, 1) != LabelMask(4) || e.MemTaint(0x3000, 1) != 0 {
		t.Error("taint not at the right byte offset")
	}
}

func TestLoadSmallClearsUpperLanes(t *testing.T) {
	e := New()
	e.MarkMem(2, 0x1000, 8)
	e.LoadMem(0, isa.R1, 0x1000, 8)
	// Now load 1 clean byte into the same register: upper lanes clear.
	e.LoadMem(0, isa.R1, 0x5000, 1)
	if e.RegTaint(0, isa.R1) != 0 {
		t.Error("narrow load kept stale upper-lane taint")
	}
}

func TestCopyAndCombine(t *testing.T) {
	e := New()
	e.MarkMem(1, 0x1000, 8)
	e.LoadMem(0, isa.R1, 0x1000, 8)
	e.CopyRegReg(0, isa.R2, isa.R1)
	if e.RegTaint(0, isa.R2) != LabelMask(1) {
		t.Error("copy lost taint")
	}
	e.SetRegImm(0, isa.R3)
	e.CombineReg(0, isa.R3, isa.R2)
	if e.RegTaint(0, isa.R3) != LabelMask(1) {
		t.Error("combine lost taint")
	}
	// Combining a clean source is a no-op.
	e.SetRegImm(0, isa.R4)
	e.CombineReg(0, isa.R2, isa.R4)
	if e.RegTaint(0, isa.R2) != LabelMask(1) {
		t.Error("clean combine changed taint")
	}
	e.SetRegImm(0, isa.R2)
	if e.RegTaint(0, isa.R2) != 0 {
		t.Error("immediate did not clear taint")
	}
}

func TestThreadsIsolated(t *testing.T) {
	e := New()
	e.MarkMem(1, 0x1000, 8)
	e.LoadMem(1, isa.R1, 0x1000, 8)
	if e.RegTaint(2, isa.R1) != 0 {
		t.Error("taint leaked across threads")
	}
	if e.RegTaint(1, isa.R1) == 0 {
		t.Error("thread 1 lost its taint")
	}
}

func TestProvenance(t *testing.T) {
	e := New()
	e.LoadMem(0, isa.R1, 0x1234, 8)
	addr, ok := e.RegProvenance(0, isa.R1)
	if !ok || addr != 0x1234 {
		t.Errorf("provenance = %#x %v", addr, ok)
	}
	// MOV propagates provenance.
	e.CopyRegReg(0, isa.R2, isa.R1)
	if addr, ok := e.RegProvenance(0, isa.R2); !ok || addr != 0x1234 {
		t.Errorf("copied provenance = %#x %v", addr, ok)
	}
	// Arithmetic keeps it (pointer adjustment).
	e.CombineReg(0, isa.R2, isa.R3)
	if _, ok := e.RegProvenance(0, isa.R2); !ok {
		t.Error("combine dropped provenance")
	}
	// Constants clear it.
	e.SetRegImm(0, isa.R2)
	if _, ok := e.RegProvenance(0, isa.R2); ok {
		t.Error("immediate kept provenance")
	}
	if _, ok := e.RegProvenance(9, isa.R1); ok {
		t.Error("unknown thread has provenance")
	}
}

// TestQuickMarkQuery property-tests that marking then querying any range
// returns exactly the marked label for overlapping queries and nothing for
// disjoint ones.
func TestQuickMarkQuery(t *testing.T) {
	f := func(addrRaw uint32, sizeRaw, labelRaw uint8) bool {
		e := New()
		addr := uint64(addrRaw)
		size := int(sizeRaw%64) + 1
		label := labelRaw%MaxLabel + 1
		e.MarkMem(label, addr, size)
		if e.MemTaint(addr, size) != LabelMask(label) {
			return false
		}
		if e.MemTaint(addr+uint64(size), 8) != 0 {
			return false
		}
		if addr >= 8 && e.MemTaint(addr-8, 8) != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEndToEndNetworkTaintReachesSyscall is the integration scenario behind
// Table I: client bytes arrive via read(), the server loads a
// pointer-influencing value from them, and the taint engine flags the next
// syscall's pointer argument as attacker controlled.
func TestEndToEndNetworkTaintReachesSyscall(t *testing.T) {
	b := asm.NewBuilder("srv.exe", bin.KindExecutable)
	b.Func("main").Entry("main")
	// socket/bind/listen/accept
	b.MovRI(isa.R0, kernel.SysSocket).Syscall()
	b.MovRR(isa.R6, isa.R0)
	b.MovRR(isa.R1, isa.R6).MovRI(isa.R2, 80).MovRI(isa.R0, kernel.SysBind).Syscall()
	b.MovRR(isa.R1, isa.R6).MovRI(isa.R0, kernel.SysListen).Syscall()
	b.MovRR(isa.R1, isa.R6).MovRI(isa.R2, 0).MovRI(isa.R0, kernel.SysAccept).Syscall()
	b.MovRR(isa.R7, isa.R0)
	// read(conn, buf, 16) — buf bytes become tainted
	b.MovRR(isa.R1, isa.R7).LeaData(isa.R2, "buf").MovRI(isa.R3, 16).MovRI(isa.R0, kernel.SysRead).Syscall()
	// Use the first 8 client bytes as a pointer for write(conn, ptr, 4).
	b.LeaData(isa.R2, "buf").Load(8, isa.R2, isa.R2, 0)
	b.MovRR(isa.R1, isa.R7).MovRI(isa.R3, 4).MovRI(isa.R0, kernel.SysWrite).Syscall()
	b.MovRI(isa.R1, 0).MovRI(isa.R0, kernel.SysExit).Syscall()
	b.EndFunc()
	b.BSS("buf", 16)
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	p := vm.NewProcess(vm.Config{Platform: vm.PlatformLinux, Seed: 3})
	k := kernel.New()
	k.Attach(p)
	e := New()
	e.Attach(p)

	// Observe the write syscall's pointer-argument taint at entry.
	var writePtrTaint uint64
	var writeProv uint64
	var writeProvOK bool
	obs := &syscallProbe{onEnter: func(ev kernel.Event) {
		if ev.Num == kernel.SysWrite {
			writePtrTaint = e.RegTaint(ev.Thread.ID, isa.R2)
			writeProv, writeProvOK = e.RegProvenance(ev.Thread.ID, isa.R2)
		}
	}}
	k.SetObserver(obs)

	if _, err := p.LoadImage(img); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Start(); err != nil {
		t.Fatal(err)
	}
	p.RunUntilIdle(1_000_000)

	cc, err := k.Connect(80)
	if err != nil {
		t.Fatal(err)
	}
	// The 8 pointer bytes: aim at the buffer itself so write succeeds.
	mod := p.Modules()[0]
	bufVA := mod.VA(mod.Image.BSSStart())
	ptrBytes := make([]byte, 16)
	for i := 0; i < 8; i++ {
		ptrBytes[i] = byte(bufVA >> (8 * i))
	}
	cc.Send(ptrBytes)
	p.RunUntilIdle(1_000_000)

	if p.State != vm.ProcExited {
		t.Fatalf("state = %v crash=%v", p.State, p.Crash)
	}
	if writePtrTaint&LabelMask(cc.Label()) == 0 {
		t.Errorf("write pointer arg taint = %#x, want label %d set", writePtrTaint, cc.Label())
	}
	if !writeProvOK || writeProv != bufVA {
		t.Errorf("write pointer provenance = %#x %v, want buf VA %#x", writeProv, writeProvOK, bufVA)
	}
}

type syscallProbe struct {
	onEnter func(kernel.Event)
}

func (s *syscallProbe) SyscallEnter(ev kernel.Event) {
	if s.onEnter != nil {
		s.onEnter(ev)
	}
}

func (s *syscallProbe) SyscallExit(kernel.Event, uint64) {}

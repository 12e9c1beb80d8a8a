package asm

import (
	"strings"
	"testing"

	"crashresist/internal/bin"
	"crashresist/internal/isa"
)

func TestBuildSimpleFunction(t *testing.T) {
	b := NewBuilder("t.exe", bin.KindExecutable)
	b.Func("main").Entry("main").
		MovRI(isa.R0, 42).
		Ret().
		EndFunc()
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if img.Entry != 0 {
		t.Errorf("Entry = %d, want 0", img.Entry)
	}
	ins, err := isa.DecodeAll(img.Text)
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 2 || ins[0].Op != isa.OpMovRI || ins[0].Imm != 42 || ins[1].Op != isa.OpRet {
		t.Errorf("text = %v", ins)
	}
	if len(img.Symbols) != 1 || img.Symbols[0].Name != "main" || img.Symbols[0].Size != uint32(len(img.Text)) {
		t.Errorf("symbols = %+v", img.Symbols)
	}
}

func TestBranchResolution(t *testing.T) {
	b := NewBuilder("t.dll", bin.KindLibrary)
	b.Func("f").
		Label("top").
		SubRI(isa.R1, 1).
		Jnz("top"). // backward
		Jmp("done").
		Nop().
		Label("done").
		Ret().
		EndFunc()
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lines, err := isa.Scan(img.Text)
	if err != nil {
		t.Fatal(err)
	}
	// Verify each branch lands on an instruction boundary at the right label.
	offsets := make(map[int]bool, len(lines))
	for _, l := range lines {
		offsets[l.Offset] = true
	}
	for _, l := range lines {
		switch l.Ins.Op {
		case isa.OpJmp, isa.OpJz, isa.OpJnz, isa.OpJl, isa.OpJge, isa.OpJle, isa.OpJg, isa.OpJb, isa.OpJae:
			dst := l.Offset + l.Ins.Size() + int(l.Ins.Disp)
			if !offsets[dst] {
				t.Errorf("branch at %d targets %d: not an instruction boundary", l.Offset, dst)
			}
		}
	}
	// jnz must target offset 0 (label top).
	if lines[1].Ins.Op != isa.OpJnz {
		t.Fatalf("expected jnz second, got %v", lines[1].Ins)
	}
	if got := lines[1].Offset + lines[1].Ins.Size() + int(lines[1].Ins.Disp); got != 0 {
		t.Errorf("jnz targets %d, want 0", got)
	}
}

func TestUndefinedLabel(t *testing.T) {
	b := NewBuilder("t.dll", bin.KindLibrary)
	b.Func("f").Jmp("nowhere").Ret().EndFunc()
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "nowhere") {
		t.Errorf("Build error = %v, want undefined label", err)
	}
}

func TestDuplicateLabel(t *testing.T) {
	b := NewBuilder("t.dll", bin.KindLibrary)
	b.Label("x").Label("x")
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("Build error = %v, want duplicate", err)
	}
}

func TestDataAndBSSSymbols(t *testing.T) {
	b := NewBuilder("t.dll", bin.KindLibrary)
	b.Func("f").
		LeaData(isa.R1, "greeting").
		LeaData(isa.R2, "buf").
		Ret().
		EndFunc()
	b.Data("greeting", []byte("hi")).
		Data("other", []byte{1, 2, 3}).
		BSS("buf", 100).
		Export("greeting", "greeting").
		Export("buf", "buf")
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	wantGreeting := img.DataStart()
	if img.Exports["greeting"] != wantGreeting {
		t.Errorf("greeting export = %#x, want %#x", img.Exports["greeting"], wantGreeting)
	}
	if img.Exports["buf"] != img.BSSStart() {
		t.Errorf("buf export = %#x, want %#x", img.Exports["buf"], img.BSSStart())
	}

	// The LEA displacements must point at those flat offsets.
	lines, err := isa.Scan(img.Text)
	if err != nil {
		t.Fatal(err)
	}
	leaTarget := func(i int) uint32 {
		return uint32(lines[i].Offset + lines[i].Ins.Size() + int(lines[i].Ins.Disp))
	}
	if leaTarget(0) != wantGreeting {
		t.Errorf("lea greeting resolves to %#x, want %#x", leaTarget(0), wantGreeting)
	}
	if leaTarget(1) != img.BSSStart() {
		t.Errorf("lea buf resolves to %#x, want %#x", leaTarget(1), img.BSSStart())
	}
}

func TestDataAlignment(t *testing.T) {
	b := NewBuilder("t.dll", bin.KindLibrary)
	b.Func("f").Ret().EndFunc()
	b.Data("a", []byte{1}).DataU64("b", 0x0102030405060708)
	b.Export("b", "b")
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	off := img.Exports["b"] - img.DataStart()
	if off%8 != 0 {
		t.Errorf("u64 symbol at unaligned data offset %d", off)
	}
	if img.Data[off] != 8 || img.Data[off+7] != 1 {
		t.Errorf("u64 not little endian: % x", img.Data[off:off+8])
	}
}

func TestDataPtrReloc(t *testing.T) {
	b := NewBuilder("t.dll", bin.KindLibrary)
	b.Func("handler").Ret().EndFunc()
	b.DataPtr("vec", "handler")
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Relocs) != 1 {
		t.Fatalf("relocs = %+v", img.Relocs)
	}
	if img.Relocs[0].Offset != img.DataStart() || img.Relocs[0].Target != 0 {
		t.Errorf("reloc = %+v", img.Relocs[0])
	}
}

func TestImportsDeduplicated(t *testing.T) {
	b := NewBuilder("t.exe", bin.KindExecutable)
	b.Func("main").Entry("main").
		CallImport("", "read").
		CallImport("libc.dll", "helper").
		CallImport("", "read"). // duplicate
		Halt().
		EndFunc()
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Imports) != 2 {
		t.Fatalf("imports = %+v, want 2 entries", img.Imports)
	}
	lines, err := isa.Scan(img.Text)
	if err != nil {
		t.Fatal(err)
	}
	if lines[0].Ins.Disp != 0 || lines[1].Ins.Disp != 1 || lines[2].Ins.Disp != 0 {
		t.Errorf("import slots = %d %d %d", lines[0].Ins.Disp, lines[1].Ins.Disp, lines[2].Ins.Disp)
	}
}

func TestGuardEmitsScopeEntry(t *testing.T) {
	b := NewBuilder("t.dll", bin.KindLibrary)
	b.Func("probe").
		Label("try_begin").
		Load(8, isa.R0, isa.R1, 0).
		Label("try_end").
		Ret().
		Label("landing").
		MovRI(isa.R0, ^uint64(0)).
		Ret().
		EndFunc()
	b.Func("filter").
		MovRI(isa.R0, 1).
		Ret().
		EndFunc()
	b.Guard("probe", "try_begin", "try_end", "filter", "landing")
	b.Guard("probe", "try_begin", "try_end", CatchAll, "landing")

	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Scopes) != 2 {
		t.Fatalf("scopes = %+v", img.Scopes)
	}
	s := img.Scopes[0]
	if s.Func != 0 || s.Begin != 0 || s.End != 7 {
		t.Errorf("scope range = %+v", s)
	}
	if s.Filter == bin.FilterCatchAll {
		t.Error("first scope should reference the filter function")
	}
	if !img.Scopes[1].IsCatchAll() {
		t.Error("second scope should be catch-all")
	}
	sym, ok := img.SymbolAt(s.Filter)
	if !ok || sym.Name != "filter" {
		t.Errorf("filter offset %#x resolves to %v", s.Filter, sym)
	}
}

func TestGuardWithBadLabels(t *testing.T) {
	b := NewBuilder("t.dll", bin.KindLibrary)
	b.Func("f").Ret().EndFunc()
	b.Guard("f", "missing", "f", CatchAll, "f")
	if _, err := b.Build(); err == nil {
		t.Error("guard with undefined label should fail build")
	}
}

func TestUnclosedFunc(t *testing.T) {
	b := NewBuilder("t.dll", bin.KindLibrary)
	b.Func("f").Ret()
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "never closed") {
		t.Errorf("Build error = %v", err)
	}
}

func TestEndFuncWithoutFunc(t *testing.T) {
	b := NewBuilder("t.dll", bin.KindLibrary)
	b.EndFunc()
	if _, err := b.Build(); err == nil {
		t.Error("EndFunc without Func should fail")
	}
}

func TestBadLoadSize(t *testing.T) {
	b := NewBuilder("t.dll", bin.KindLibrary)
	b.Func("f").Load(3, isa.R0, isa.R1, 0).Ret().EndFunc()
	if _, err := b.Build(); err == nil {
		t.Error("load size 3 should fail")
	}
}

func TestExportOfCodeLabel(t *testing.T) {
	b := NewBuilder("t.dll", bin.KindLibrary)
	b.Func("a").Nop().Ret().EndFunc()
	b.Func("entrypoint").Ret().EndFunc()
	b.Export("EntryPoint", "entrypoint")
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	wantOff := img.Symbols[1].Offset
	if img.Exports["EntryPoint"] != wantOff {
		t.Errorf("export = %#x, want %#x", img.Exports["EntryPoint"], wantOff)
	}
}

func TestForwardCall(t *testing.T) {
	b := NewBuilder("t.exe", bin.KindExecutable)
	b.Func("main").Entry("main").
		Call("callee").
		Halt().
		EndFunc()
	b.Func("callee").Ret().EndFunc()
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lines, err := isa.Scan(img.Text)
	if err != nil {
		t.Fatal(err)
	}
	calleeOff := img.Symbols[1].Offset
	got := uint32(lines[0].Offset + lines[0].Ins.Size() + int(lines[0].Ins.Disp))
	if got != calleeOff {
		t.Errorf("call resolves to %#x, want %#x", got, calleeOff)
	}
}

// TestBuilderFullInstructionSurface drives every emitter through the
// builder and validates the decoded stream.
func TestBuilderFullInstructionSurface(t *testing.T) {
	b := NewBuilder("all.exe", bin.KindExecutable)
	b.Func("main").Entry("main").
		MovRI(isa.R1, 7).
		MovRR(isa.R2, isa.R1).
		AddRR(isa.R2, isa.R1).
		SubRR(isa.R2, isa.R1).
		AndRR(isa.R2, isa.R1).
		OrRR(isa.R2, isa.R1).
		XorRR(isa.R2, isa.R1).
		MulRR(isa.R2, isa.R1).
		DivRR(isa.R2, isa.R1).
		ShlRR(isa.R2, isa.R1).
		ShrRR(isa.R2, isa.R1).
		AddRI(isa.R2, 1).
		SubRI(isa.R2, 1).
		AndRI(isa.R2, -1).
		OrRI(isa.R2, 0).
		XorRI(isa.R2, 0).
		MulRI(isa.R2, 1).
		ShlRI(isa.R2, 1).
		ShrRI(isa.R2, 1).
		Not(isa.R2).
		Neg(isa.R2).
		CmpRR(isa.R2, isa.R1).
		CmpRI(isa.R2, 5).
		TestRR(isa.R2, isa.R1).
		TestRI(isa.R2, 5).
		Jz("x").Jnz("x").Jl("x").Jge("x").Jle("x").Jg("x").Jb("x").Jae("x").
		Label("x").
		LeaCode(isa.R3, "main").
		JmpR(isa.R3)
	b.Halt().EndFunc()
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ins, err := isa.DecodeAll(img.Text)
	if err != nil {
		t.Fatal(err)
	}
	// One instruction per emitter call above.
	if len(ins) != 36 {
		t.Errorf("decoded %d instructions", len(ins))
	}
}

// TestTextALUMatrix assembles every mnemonic in both RR and RI forms and
// checks opcode selection.
func TestTextALUMatrix(t *testing.T) {
	src := `
.module alu.exe exe
.entry main
.func main
    add r1, r2
    add r1, 4
    sub r1, r2
    sub r1, 4
    and r1, r2
    and r1, 4
    or r1, r2
    or r1, 4
    xor r1, r2
    xor r1, 4
    shl r1, r2
    shl r1, 4
    shr r1, r2
    shr r1, 4
    mul r1, r2
    mul r1, 4
    div r1, r2
    cmp r1, r2
    cmp r1, 4
    test r1, r2
    test r1, 4
    mov r1, r2
    mov r1, 4
    not r1
    neg r1
    jmpr r1
.endfunc
`
	img, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	ins, err := isa.DecodeAll(img.Text)
	if err != nil {
		t.Fatal(err)
	}
	want := []isa.Op{
		isa.OpAddRR, isa.OpAddRI, isa.OpSubRR, isa.OpSubRI,
		isa.OpAndRR, isa.OpAndRI, isa.OpOrRR, isa.OpOrRI,
		isa.OpXorRR, isa.OpXorRI, isa.OpShlRR, isa.OpShlRI,
		isa.OpShrRR, isa.OpShrRI, isa.OpMulRR, isa.OpMulRI,
		isa.OpDivRR, isa.OpCmpRR, isa.OpCmpRI, isa.OpTestRR, isa.OpTestRI,
		isa.OpMovRR, isa.OpMovRI, isa.OpNot, isa.OpNeg, isa.OpJmpR,
	}
	if len(ins) != len(want) {
		t.Fatalf("decoded %d, want %d", len(ins), len(want))
	}
	for i := range want {
		if ins[i].Op != want[i] {
			t.Errorf("op %d = %v, want %v", i, ins[i].Op, want[i])
		}
	}
}

package isa

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestRegisterString(t *testing.T) {
	tests := []struct {
		give Register
		want string
	}{
		{R0, "r0"},
		{R15, "r15"},
		{SP, "sp"},
		{Register(42), "reg?42"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("Register(%d).String() = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func TestRegisterValid(t *testing.T) {
	if !R0.Valid() || !SP.Valid() {
		t.Error("R0 and SP must be valid")
	}
	if Register(NumRegisters).Valid() {
		t.Error("register beyond SP must be invalid")
	}
}

func TestLayoutSizes(t *testing.T) {
	tests := []struct {
		give Layout
		want int
	}{
		{LayoutNone, 1},
		{LayoutR, 2},
		{LayoutRR, 3},
		{LayoutRI64, 10},
		{LayoutRI32, 6},
		{LayoutRRD, 7},
		{LayoutD32, 5},
		{Layout(0), 0},
	}
	for _, tt := range tests {
		if got := tt.give.Size(); got != tt.want {
			t.Errorf("Layout(%d).Size() = %d, want %d", tt.give, got, tt.want)
		}
	}
}

func TestEveryOpcodeHasLayoutAndName(t *testing.T) {
	for op := OpNop; op < opMax; op++ {
		if LayoutOf(op) == 0 {
			t.Errorf("opcode %d has no layout", op)
		}
		if strings.HasPrefix(op.String(), "op?") {
			t.Errorf("opcode %d has no name", op)
		}
		if !op.Valid() {
			t.Errorf("opcode %d should be valid", op)
		}
	}
	if Op(0).Valid() || opMax.Valid() {
		t.Error("0 and opMax must be invalid opcodes")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tests := []Instruction{
		{Op: OpNop},
		{Op: OpHalt},
		{Op: OpRet},
		{Op: OpSyscall},
		{Op: OpYield},
		{Op: OpPush, A: R3},
		{Op: OpPop, A: SP},
		{Op: OpCallR, A: R9},
		{Op: OpJmpR, A: R1},
		{Op: OpNot, A: R2},
		{Op: OpNeg, A: R15},
		{Op: OpMovRR, A: R1, B: R2},
		{Op: OpAddRR, A: R0, B: SP},
		{Op: OpDivRR, A: R4, B: R5},
		{Op: OpCmpRR, A: R6, B: R7},
		{Op: OpTestRR, A: R8, B: R9},
		{Op: OpMovRI, A: R1, Imm: math.MaxUint64},
		{Op: OpMovRI, A: R1, Imm: 0},
		{Op: OpAddRI, A: R1, Disp: -1},
		{Op: OpCmpRI, A: R2, Disp: math.MaxInt32},
		{Op: OpTestRI, A: R2, Disp: math.MinInt32},
		{Op: OpLea, A: R3, Disp: -128},
		{Op: OpLoad1, A: R0, B: R1, Disp: 16},
		{Op: OpLoad8, A: R0, B: SP, Disp: -8},
		{Op: OpStore4, A: R1, B: R2, Disp: 1 << 20},
		{Op: OpJmp, Disp: -5},
		{Op: OpJz, Disp: 100},
		{Op: OpCall, Disp: 0},
		{Op: OpCallI, Disp: 12345},
		{Op: OpRaise, Disp: CodeToDisp(0xC0000005)},
	}
	for _, tt := range tests {
		t.Run(tt.String(), func(t *testing.T) {
			enc, err := Encode(nil, tt)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			if len(enc) != tt.Size() {
				t.Fatalf("encoded size = %d, want %d", len(enc), tt.Size())
			}
			dec, n, err := Decode(enc)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if n != len(enc) {
				t.Fatalf("decoded size = %d, want %d", n, len(enc))
			}
			if dec != tt {
				t.Fatalf("round trip: got %+v, want %+v", dec, tt)
			}
		})
	}
}

func TestEncodeRejectsBadRegister(t *testing.T) {
	tests := []Instruction{
		{Op: OpPush, A: Register(200)},
		{Op: OpMovRR, A: R0, B: Register(17)},
		{Op: OpLoad8, A: Register(99), B: R0},
	}
	for _, tt := range tests {
		if _, err := Encode(nil, tt); err == nil {
			t.Errorf("Encode(%+v) should fail", tt)
		}
	}
}

func TestEncodeRejectsInvalidOp(t *testing.T) {
	if _, err := Encode(nil, Instruction{Op: Op(0)}); err == nil {
		t.Error("Encode with op 0 should fail")
	}
	if _, err := Encode(nil, Instruction{Op: opMax}); err == nil {
		t.Error("Encode with opMax should fail")
	}
}

func TestDecodeTruncated(t *testing.T) {
	enc, err := Encode(nil, Instruction{Op: OpMovRI, A: R1, Imm: 42})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(enc); cut++ {
		if _, _, err := Decode(enc[:cut]); err == nil {
			t.Errorf("Decode of %d/%d bytes should fail", cut, len(enc))
		}
	}
	if _, _, err := Decode(nil); err == nil {
		t.Error("Decode of empty buffer should fail")
	}
}

func TestDecodeRejectsBadRegisterByte(t *testing.T) {
	buf := []byte{byte(OpPush), 0xFF}
	if _, _, err := Decode(buf); err == nil {
		t.Error("Decode push with register 255 should fail")
	}
}

func TestEncodeAllDecodeAll(t *testing.T) {
	prog := []Instruction{
		{Op: OpMovRI, A: R1, Imm: 0xdeadbeef},
		{Op: OpAddRI, A: R1, Disp: 1},
		{Op: OpSyscall},
		{Op: OpHalt},
	}
	enc, err := encodeAll(prog)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeAll(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(prog) {
		t.Fatalf("decoded %d instructions, want %d", len(dec), len(prog))
	}
	for i := range prog {
		if dec[i] != prog[i] {
			t.Errorf("instruction %d: got %+v, want %+v", i, dec[i], prog[i])
		}
	}
}

func TestDecodeAllReportsOffset(t *testing.T) {
	enc, err := encodeAll([]Instruction{{Op: OpNop}, {Op: OpNop}})
	if err != nil {
		t.Fatal(err)
	}
	enc = append(enc, 0) // invalid opcode at offset 2
	if _, err := DecodeAll(enc); err == nil || !strings.Contains(err.Error(), "offset 2") {
		t.Errorf("DecodeAll error = %v, want offset 2 mention", err)
	}
}

// TestQuickEncodeDecode property-tests the round trip for arbitrary valid
// instructions.
func TestQuickEncodeDecode(t *testing.T) {
	f := func(opRaw, aRaw, bRaw uint8, imm uint64, disp int32) bool {
		op := OpNop + Op(opRaw)%(opMax-OpNop)
		ins := Instruction{
			Op: op,
			A:  Register(aRaw % NumRegisters),
			B:  Register(bRaw % NumRegisters),
		}
		// Only keep the operands the layout carries, so equality holds.
		switch LayoutOf(op) {
		case LayoutNone:
			ins.A, ins.B = 0, 0
		case LayoutR:
			ins.B = 0
		case LayoutRI64:
			ins.B = 0
			ins.Imm = imm
		case LayoutRI32:
			ins.B = 0
			ins.Disp = disp
		case LayoutRRD:
			ins.Disp = disp
		case LayoutD32:
			ins.A, ins.B = 0, 0
			ins.Disp = disp
		}
		enc, err := Encode(nil, ins)
		if err != nil {
			return false
		}
		dec, n, err := Decode(enc)
		return err == nil && n == len(enc) && dec == ins
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInstructionPredicates(t *testing.T) {
	if got := (Instruction{Op: OpLoad4}).LoadSize(); got != 4 {
		t.Errorf("load4 size = %d, want 4", got)
	}
	if got := (Instruction{Op: OpStore2}).StoreSize(); got != 2 {
		t.Errorf("store2 size = %d, want 2", got)
	}
	if got := (Instruction{Op: OpAddRR}).LoadSize(); got != 0 {
		t.Errorf("add load size = %d, want 0", got)
	}
}

func TestDisassemble(t *testing.T) {
	enc, err := encodeAll([]Instruction{
		{Op: OpMovRI, A: R1, Imm: 0x10},
		{Op: OpLoad8, A: R0, B: R1, Disp: 8},
		{Op: OpHalt},
	})
	if err != nil {
		t.Fatal(err)
	}
	text := Disassemble(enc)
	for _, want := range []string{"mov r1, 0x10", "load8 r0, [r1+8]", "halt"} {
		if !strings.Contains(text, want) {
			t.Errorf("disassembly missing %q:\n%s", want, text)
		}
	}
}

func TestDisassembleStopsAtGarbage(t *testing.T) {
	text := Disassemble([]byte{byte(OpNop), 0xFE})
	if !strings.Contains(text, "nop") || !strings.Contains(text, "invalid opcode") {
		t.Errorf("unexpected disassembly:\n%s", text)
	}
}

func TestScan(t *testing.T) {
	enc, err := encodeAll([]Instruction{{Op: OpNop}, {Op: OpRet}})
	if err != nil {
		t.Fatal(err)
	}
	lines, err := Scan(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 || lines[1].Offset != 1 || lines[1].Ins.Op != OpRet {
		t.Errorf("Scan = %+v", lines)
	}
	if _, err := Scan([]byte{0xFE}); err == nil {
		t.Error("Scan of garbage should fail")
	}
}

func TestInstructionStringForms(t *testing.T) {
	tests := []struct {
		give Instruction
		want string
	}{
		{Instruction{Op: OpStore8, A: R1, B: R2, Disp: -16}, "store8 [r1-16], r2"},
		{Instruction{Op: OpLea, A: R4, Disp: 32}, "lea r4, [pc+32]"},
		{Instruction{Op: OpCallI, Disp: 7}, "calli #7"},
		{Instruction{Op: OpRaise, Disp: CodeToDisp(0xC0000005)}, "raise 0xc0000005"},
		{Instruction{Op: OpJnz, Disp: -9}, "jnz -9"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

// encodeAll encodes a sequence of instructions into a fresh byte slice.
func encodeAll(prog []Instruction) ([]byte, error) {
	var (
		out []byte
		err error
	)
	for i, ins := range prog {
		out, err = Encode(out, ins)
		if err != nil {
			return nil, fmt.Errorf("instruction %d: %w", i, err)
		}
	}
	return out, nil
}

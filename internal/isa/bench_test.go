package isa

import "testing"

func benchProgram() []Instruction {
	return []Instruction{
		{Op: OpMovRI, A: R1, Imm: 0xdeadbeef},
		{Op: OpLoad8, A: R2, B: R1, Disp: 16},
		{Op: OpAddRR, A: R2, B: R1},
		{Op: OpCmpRI, A: R2, Disp: 100},
		{Op: OpJnz, Disp: -24},
		{Op: OpCall, Disp: 64},
		{Op: OpRet},
	}
}

func BenchmarkEncode(b *testing.B) {
	prog := benchProgram()
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		for _, ins := range prog {
			var err error
			buf, err = Encode(buf, ins)
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	enc, err := encodeAll(benchProgram())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		off := 0
		for off < len(enc) {
			_, n, err := Decode(enc[off:])
			if err != nil {
				b.Fatal(err)
			}
			off += n
		}
	}
}

func BenchmarkDisassemble(b *testing.B) {
	enc, err := encodeAll(benchProgram())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if Disassemble(enc) == "" {
			b.Fatal("empty disassembly")
		}
	}
}

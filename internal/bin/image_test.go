package bin

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"crashresist/internal/isa"
	"crashresist/internal/mem"
)

// testImage builds a small valid image: a function at 0 that loads from a
// pointer held in data, a filter at filterOff, plus a guarded region.
func testImage(t testing.TB) *Image {
	t.Helper()
	var text []byte
	for _, ins := range []isa.Instruction{
		{Op: isa.OpNop}, // 0
		{Op: isa.OpLoad8, A: isa.R0, B: isa.R1, Disp: 0}, // 1 (guarded)
		{Op: isa.OpRet}, // 8
		// filter at offset 9: return 1
		{Op: isa.OpMovRI, A: isa.R0, Imm: 1}, // 9
		{Op: isa.OpRet},                      // 19
	} {
		var err error
		if text, err = isa.Encode(text, ins); err != nil {
			t.Fatal(err)
		}
	}
	img := &Image{
		Name:    "test.dll",
		Kind:    KindLibrary,
		Text:    text,
		Data:    make([]byte, 64),
		BSSSize: 128,
		Exports: map[string]uint32{"probe": 0, "filter": 9},
		Symbols: []Symbol{
			{Name: "probe", Offset: 0, Size: 9},
			{Name: "filter", Offset: 9, Size: 11},
		},
		Scopes: []ScopeEntry{
			{Func: 0, Begin: 1, End: 8, Filter: 9, Target: 8},
		},
	}
	img.Imports = nil
	img.Relocs = []Reloc{{Offset: img.DataStart() + 8, Target: 0}}
	return img
}

func TestImageLayout(t *testing.T) {
	img := testImage(t)
	if img.DataStart() != mem.PageSize {
		t.Errorf("DataStart = %#x, want page size", img.DataStart())
	}
	if img.BSSStart() != 2*mem.PageSize {
		t.Errorf("BSSStart = %#x", img.BSSStart())
	}
	if img.Span() != 3*mem.PageSize {
		t.Errorf("Span = %#x, want 3 pages", img.Span())
	}
}

func TestValidate(t *testing.T) {
	if err := testImage(t).Validate(); err != nil {
		t.Fatalf("valid image rejected: %v", err)
	}

	tests := []struct {
		name   string
		mutate func(*Image)
	}{
		{"no name", func(i *Image) { i.Name = "" }},
		{"bad kind", func(i *Image) { i.Kind = 0 }},
		{"bad export", func(i *Image) { i.Exports["x"] = 1 << 30 }},
		{"reloc in text", func(i *Image) { i.Relocs = []Reloc{{Offset: 0}} }},
		{"reloc past data", func(i *Image) { i.Relocs = []Reloc{{Offset: i.DataStart() + 60}} }},
		{"scope inverted", func(i *Image) { i.Scopes[0].Begin, i.Scopes[0].End = 8, 1 }},
		{"scope filter out of range", func(i *Image) { i.Scopes[0].Filter = 9999 }},
		{"scope target out of range", func(i *Image) { i.Scopes[0].Target = 9999 }},
		{"scope func out of range", func(i *Image) { i.Scopes[0].Func = 9999 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			img := testImage(t)
			tt.mutate(img)
			if err := img.Validate(); err == nil {
				t.Error("Validate accepted a broken image")
			}
		})
	}
}

func TestValidateEntryForExecutables(t *testing.T) {
	img := testImage(t)
	img.Kind = KindExecutable
	img.Entry = uint32(len(img.Text)) + 5
	if err := img.Validate(); err == nil {
		t.Error("entry outside text accepted")
	}
	img.Entry = 0
	if err := img.Validate(); err != nil {
		t.Errorf("valid executable rejected: %v", err)
	}
}

func TestScopeEntryHelpers(t *testing.T) {
	s := ScopeEntry{Begin: 10, End: 20, Filter: FilterCatchAll}
	if !s.Covers(10) || !s.Covers(19) || s.Covers(20) || s.Covers(9) {
		t.Error("Covers boundary behaviour wrong")
	}
	if !s.IsCatchAll() {
		t.Error("catch-all not detected")
	}
	if (ScopeEntry{Filter: 100}).IsCatchAll() {
		t.Error("offset filter misdetected as catch-all")
	}
}

func TestImportString(t *testing.T) {
	if got := (Import{Symbol: "VirtualQuery"}).String(); got != "api:VirtualQuery" {
		t.Errorf("got %q", got)
	}
	if got := (Import{Module: "ntdll.dll", Symbol: "f"}).String(); got != "ntdll.dll!f" {
		t.Errorf("got %q", got)
	}
}

func TestSymbolAt(t *testing.T) {
	img := testImage(t)
	s, ok := img.SymbolAt(5)
	if !ok || s.Name != "probe" {
		t.Errorf("SymbolAt(5) = %v %v, want probe", s, ok)
	}
	s, ok = img.SymbolAt(12)
	if !ok || s.Name != "filter" {
		t.Errorf("SymbolAt(12) = %v %v, want filter", s, ok)
	}
	if _, ok := img.SymbolAt(9999); ok {
		t.Error("SymbolAt out of range should miss")
	}
}

func TestLoad(t *testing.T) {
	img := testImage(t)
	as := mem.NewAddressSpace()
	alloc := mem.NewAllocator(as, 0x100000, 0x10000000, 7)
	mod, err := Load(as, alloc, img, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Text mapped r-x and content intact.
	perm, ok := as.PermAt(mod.Base)
	if !ok || perm != mem.PermRX {
		t.Errorf("text perm = %v %v, want r-x", perm, ok)
	}
	got, err := as.Read(mod.Base, uint64(len(img.Text)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img.Text) {
		t.Error("text content mismatch")
	}

	// Data mapped rw-.
	perm, ok = as.PermAt(mod.VA(img.DataStart()))
	if !ok || perm != mem.PermRW {
		t.Errorf("data perm = %v %v, want rw-", perm, ok)
	}

	// Reloc applied: data+8 holds base+0.
	v, err := as.ReadUint(mod.VA(img.DataStart()+8), 8)
	if err != nil {
		t.Fatal(err)
	}
	if v != mod.Base {
		t.Errorf("reloc value = %#x, want %#x", v, mod.Base)
	}

	// Address helpers.
	if !mod.Contains(mod.Base) || mod.Contains(mod.Base+img.Span()) {
		t.Error("Contains boundary wrong")
	}
	if mod.OffsetOf(mod.VA(42)) != 42 {
		t.Error("VA/OffsetOf not inverse")
	}
}

func TestLoadResolvesImports(t *testing.T) {
	img := testImage(t)
	img.Imports = []Import{{Symbol: "NtProbe"}, {Module: "other.dll", Symbol: "fn"}}
	as := mem.NewAddressSpace()
	alloc := mem.NewAllocator(as, 0x100000, 0x10000000, 7)

	resolved := map[string]uint64{
		"api:NtProbe":  NativeImportBit | 33,
		"other.dll!fn": 0x123450,
	}
	mod, err := Load(as, alloc, img, func(imp Import) (uint64, error) {
		return resolved[imp.String()], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if mod.ImportAddrs[0] != (NativeImportBit|33) || mod.ImportAddrs[1] != 0x123450 {
		t.Errorf("ImportAddrs = %#x", mod.ImportAddrs)
	}

	if _, err := Load(as, alloc, img, nil); err == nil {
		t.Error("load with imports but nil resolver should fail")
	}
}

func TestScopesAtOrdersInnermostFirst(t *testing.T) {
	img := testImage(t)
	img.Scopes = []ScopeEntry{
		{Func: 0, Begin: 0, End: 8, Filter: FilterCatchAll, Target: 8}, // outer
		{Func: 0, Begin: 1, End: 8, Filter: 9, Target: 8},              // inner
	}
	as := mem.NewAddressSpace()
	alloc := mem.NewAllocator(as, 0x100000, 0x10000000, 7)
	mod, err := Load(as, alloc, img, nil)
	if err != nil {
		t.Fatal(err)
	}
	scopes := mod.ScopesAt(mod.VA(2))
	if len(scopes) != 2 || scopes[0].Filter != 9 {
		t.Errorf("ScopesAt = %+v, want inner (filter 9) first", scopes)
	}
	if got := mod.ScopesAt(mod.VA(8)); got != nil {
		t.Errorf("ScopesAt outside guarded range = %+v", got)
	}
	if got := mod.ScopesAt(0x1); got != nil {
		t.Errorf("ScopesAt outside module = %+v", got)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	img := testImage(t)
	img.Imports = []Import{{Symbol: "read"}, {Module: "libc.dll", Symbol: "helper"}}

	blob, err := Marshal(img)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, img) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, img)
	}
}

func TestMarshalDeterministic(t *testing.T) {
	img := testImage(t)
	a, err := Marshal(img)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Marshal(img)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("Marshal not deterministic")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	tests := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("CRX1"),
		append([]byte("CRX1"), 0xFF, 0xFF, 0xFF, 0x7F), // absurd name length
	}
	for i, give := range tests {
		if _, err := Unmarshal(give); err == nil {
			t.Errorf("case %d: Unmarshal accepted garbage", i)
		}
	}
}

func TestUnmarshalRejectsTruncation(t *testing.T) {
	blob, err := Marshal(testImage(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{5, len(blob) / 2, len(blob) - 1} {
		if _, err := Unmarshal(blob[:cut]); err == nil {
			t.Errorf("Unmarshal of %d/%d bytes should fail", cut, len(blob))
		}
	}
}

// scopeTableRejects returns hostile variants of testImage's CRX encoding,
// which ends in its scope table: a u32 count, then one five-u32 record
// (Func, Begin, End, Filter, Target). The decoder must reject each one.
func scopeTableRejects(t testing.TB) []struct {
	name string
	data []byte
} {
	t.Helper()
	valid, err := Marshal(testImage(t))
	if err != nil {
		t.Fatal(err)
	}
	count := len(valid) - 24 // offset of the scope count
	rec := count + 4         // offset of the scope record
	patch := func(off int, v uint32) []byte {
		out := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(out[off:], v)
		return out
	}
	inverted := patch(rec+4, 8)
	binary.LittleEndian.PutUint32(inverted[rec+8:], 1)
	return []struct {
		name string
		data []byte
	}{
		{"short count", valid[:count+2]},
		{"count exceeds input", patch(count, 0xffffffff)},
		{"truncated entry", valid[:len(valid)-1]},
		{"trailing byte", append(append([]byte(nil), valid...), 0)},
		{"inverted range", inverted},
		{"filter outside text", patch(rec+12, 9999)},
	}
}

// TestUnmarshalRejects holds the scope-table tail of the CRX decoder to a
// strict layout: a count the input can hold, whole records, no trailing
// bytes, and only ranges and filters that Validate accepts.
func TestUnmarshalRejects(t *testing.T) {
	for _, tc := range scopeTableRejects(t) {
		t.Run(tc.name, func(t *testing.T) {
			if img, err := Unmarshal(tc.data); err == nil {
				t.Errorf("Unmarshal accepted %s: scopes %+v", tc.name, img.Scopes)
			}
		})
	}
}

func TestKindString(t *testing.T) {
	if KindExecutable.String() != "exe" || KindLibrary.String() != "dll" || Kind(9).String() != "kind?" {
		t.Error("Kind.String wrong")
	}
}

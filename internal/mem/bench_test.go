package mem

import "testing"

// BenchmarkFetchExec fetches a 16-byte instruction window that straddles
// two executable pages, as the VM does at every step.
func BenchmarkFetchExec(b *testing.B) {
	as := NewAddressSpace()
	const code = 0x400000
	if err := as.Map(code, 2*PageSize, PermRX); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 0, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := as.FetchExec(code+PageSize-8, 16, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadUint alternates 8-byte loads between a stack page and a
// data page.
func BenchmarkReadUint(b *testing.B) {
	as := NewAddressSpace()
	const stack, data = 0x7ff000, 0x600000
	for _, base := range []uint64{stack, data} {
		if err := as.Map(base, PageSize, PermRW); err != nil {
			b.Fatal(err)
		}
		if err := as.WriteUint(base+64, 8, base); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(stack + 64)
		if i&1 != 0 {
			addr = data + 64
		}
		if _, err := as.ReadUint(addr, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapUnmap maps, touches and unmaps a 16 KiB stack-sized region.
func BenchmarkMapUnmap(b *testing.B) {
	as := NewAddressSpace()
	const base, length = 0x10000000, 4 * PageSize
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := as.Map(base, length, PermRW); err != nil {
			b.Fatal(err)
		}
		if err := as.WriteUint(base+length-64, 8, uint64(i)); err != nil {
			b.Fatal(err)
		}
		if err := as.Unmap(base, length); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewAllocatorSameSeed creates one allocator per iteration with a
// fixed seed and places a stack, as every fuzz-probe process does.
func BenchmarkNewAllocatorSameSeed(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := NewAllocator(NewAddressSpace(), 0x10000, 0x7fff0000, 42)
		if _, err := a.Alloc(4*PageSize, PermRW); err != nil {
			b.Fatal(err)
		}
	}
}

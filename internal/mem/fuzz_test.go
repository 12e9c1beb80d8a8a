package mem

import (
	"bytes"
	"errors"
	"slices"
	"sort"
	"testing"
)

// refSpace is the plain reference model FuzzAddressSpaceOps checks
// AddressSpace against: a map of page numbers to byte arrays, with no
// lazy backing and no translation cache.
type refSpace struct {
	pages map[uint64]*refPage
}

type refPage struct {
	data [PageSize]byte
	perm Perm
}

// fault returns the fault an access of [addr, addr+n) needing perm must
// raise, or nil.
func (r *refSpace) fault(addr, n uint64, access Access, need Perm) *Fault {
	for a := addr; a < addr+n; a = (a/PageSize + 1) * PageSize {
		p, ok := r.pages[a/PageSize]
		if !ok {
			return &Fault{Addr: a, Access: access, Unmapped: true}
		}
		if p.perm&need != need {
			return &Fault{Addr: a, Access: access}
		}
	}
	return nil
}

func (r *refSpace) regions() []Region {
	keys := make([]uint64, 0, len(r.pages))
	for k := range r.pages {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var out []Region
	for _, k := range keys {
		perm := r.pages[k].perm
		if n := len(out); n > 0 && out[n-1].Addr+out[n-1].Length == k*PageSize && out[n-1].Perm == perm {
			out[n-1].Length += PageSize
			continue
		}
		out = append(out, Region{Addr: k * PageSize, Length: PageSize, Perm: perm})
	}
	return out
}

// opReader decodes fuzz bytes into operands, reading zeros once exhausted.
type opReader struct{ b []byte }

func (o *opReader) byte() byte {
	if len(o.b) == 0 {
		return 0
	}
	v := o.b[0]
	o.b = o.b[1:]
	return v
}

func (o *opReader) u16() uint16 { return uint16(o.byte()) | uint16(o.byte())<<8 }

// Operands live in a window of fuzzWindow pages so maps, unmaps and
// accesses collide often, and pages share translation-cache entries.
const (
	fuzzBase   = 0x100000
	fuzzWindow = 20
)

func sameFault(err error, want *Fault) bool {
	if want == nil {
		return err == nil
	}
	var f *Fault
	return errors.As(err, &f) && *f == *want
}

// FuzzAddressSpaceOps runs random sequences of Map, Unmap, Protect, Write,
// WriteForce, Read, FetchExec and Regions against both an AddressSpace and
// the reference model, and requires identical results, faults and bytes.
func FuzzAddressSpaceOps(f *testing.F) {
	f.Add([]byte{})
	// Map, write, read back, unmap, re-map, read zeros.
	f.Add([]byte{0, 2, 1, 3, 3, 0x10, 0x20, 40, 7, 5, 0x10, 0x20, 40, 1, 2, 1, 0, 2, 1, 3, 5, 0x10, 0x20, 40})
	// Map executable, fetch across pages, protect away exec, fetch again.
	f.Add([]byte{0, 4, 2, 5, 4, 4, 0xf0, 0x4f, 16, 6, 0xf8, 0x4f, 16, 2, 5, 1, 1, 6, 0xf8, 0x4f, 16, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		as, ref := NewAddressSpace(), &refSpace{pages: make(map[uint64]*refPage)}
		in := &opReader{b: data}
		for step := 0; len(in.b) > 0 && step < 256; step++ {
			op := in.byte() % 8
			switch op {
			case 0, 1, 2: // Map, Unmap, Protect
				pg := fuzzBase/PageSize + uint64(in.byte()%fuzzWindow)
				n := 1 + uint64(in.byte()%4)
				perm := Perm(in.byte() % 8)
				var err error
				switch op {
				case 0:
					err = as.Map(pg*PageSize, n*PageSize, perm)
				case 1:
					err = as.Unmap(pg*PageSize, n*PageSize)
				case 2:
					err = as.Protect(pg*PageSize, n*PageSize, perm)
				}
				mapped := 0
				for i := pg; i < pg+n; i++ {
					if _, ok := ref.pages[i]; ok {
						mapped++
					}
				}
				wantOK := op == 1 || (op == 0 && mapped == 0) || (op == 2 && mapped == int(n))
				if (err == nil) != wantOK {
					t.Fatalf("step %d op %d page %#x n %d: err %v, want ok=%v", step, op, pg, n, err, wantOK)
				}
				if !wantOK {
					continue
				}
				for i := pg; i < pg+n; i++ {
					switch op {
					case 0:
						ref.pages[i] = &refPage{perm: perm}
					case 1:
						delete(ref.pages, i)
					case 2:
						ref.pages[i].perm = perm
					}
				}
			case 3, 4: // Write, WriteForce
				addr := fuzzBase + uint64(in.u16())%(fuzzWindow*PageSize)
				buf := make([]byte, in.byte()%64)
				fill := in.byte()
				for i := range buf {
					buf[i] = fill + byte(i)
				}
				var err error
				var want *Fault
				if op == 3 {
					err = as.Write(addr, buf)
					want = ref.fault(addr, uint64(len(buf)), AccessWrite, PermWrite)
				} else {
					err = as.WriteForce(addr, buf)
					// WriteForce reports the start of the unmapped page.
					if want = ref.fault(addr, uint64(len(buf)), AccessWrite, 0); want != nil {
						want.Addr &^= PageSize - 1
					}
				}
				if !sameFault(err, want) {
					t.Fatalf("step %d op %d at %#x+%d: err %v, want %v", step, op, addr, len(buf), err, want)
				}
				if want == nil {
					for i, c := range buf {
						a := addr + uint64(i)
						ref.pages[a/PageSize].data[a%PageSize] = c
					}
				}
			case 5: // Read
				addr := fuzzBase + uint64(in.u16())%(fuzzWindow*PageSize)
				n := uint64(in.byte() % 64)
				got, err := as.Read(addr, n)
				want := ref.fault(addr, n, AccessRead, PermRead)
				if !sameFault(err, want) {
					t.Fatalf("step %d read %#x+%d: err %v, want %v", step, addr, n, err, want)
				}
				if want == nil {
					exp := make([]byte, n)
					for i := range exp {
						a := addr + uint64(i)
						exp[i] = ref.pages[a/PageSize].data[a%PageSize]
					}
					if !bytes.Equal(got, exp) {
						t.Fatalf("step %d read %#x+%d: % x, want % x", step, addr, n, got, exp)
					}
				}
			case 6: // FetchExec
				addr := fuzzBase + uint64(in.u16())%(fuzzWindow*PageSize)
				max := 1 + int(in.byte()%32)
				got, err := as.FetchExec(addr, max, make([]byte, 0, 32))
				want := ref.fault(addr, 1, AccessExec, PermExec)
				if !sameFault(err, want) {
					t.Fatalf("step %d fetch %#x: err %v, want %v", step, addr, err, want)
				}
				if want != nil {
					continue
				}
				var exp []byte
				for a := addr; len(exp) < max; a++ {
					p, ok := ref.pages[a/PageSize]
					if !ok || p.perm&PermExec == 0 {
						break
					}
					exp = append(exp, p.data[a%PageSize])
				}
				if !bytes.Equal(got, exp) {
					t.Fatalf("step %d fetch %#x max %d: % x, want % x", step, addr, max, got, exp)
				}
			case 7: // Regions, Mapped, PermAt
				if got, want := as.Regions(), ref.regions(); !slices.Equal(got, want) {
					t.Fatalf("step %d: regions %v, want %v", step, got, want)
				}
				for pg := uint64(fuzzBase / PageSize); pg < fuzzBase/PageSize+fuzzWindow; pg++ {
					var wantPerm Perm
					p, ok := ref.pages[pg]
					if ok {
						wantPerm = p.perm
					}
					perm, mapped := as.PermAt(pg * PageSize)
					if perm != wantPerm || mapped != ok || as.Mapped(pg*PageSize) != ok {
						t.Fatalf("step %d page %#x: PermAt (%v, %v), want (%v, %v)", step, pg, perm, mapped, wantPerm, ok)
					}
				}
			}
		}
	})
}

// TestUnmapRemapReadsZeros unmaps a written, cached page and maps the same
// page again: it must read zeros and take the new permission, not a stale
// cached page.
func TestUnmapRemapReadsZeros(t *testing.T) {
	as := NewAddressSpace()
	const addr = 0x40000
	if err := as.Map(addr, PageSize, PermRWX); err != nil {
		t.Fatal(err)
	}
	if err := as.Write(addr+8, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := as.FetchExec(addr+8, 4, nil); err != nil { // cache it
		t.Fatal(err)
	}
	if err := as.Unmap(addr, PageSize); err != nil {
		t.Fatal(err)
	}
	if as.Mapped(addr) {
		t.Fatal("page still mapped after Unmap")
	}
	if _, err := as.Read(addr+8, 4); !sameFault(err, &Fault{Addr: addr + 8, Access: AccessRead, Unmapped: true}) {
		t.Fatalf("read of unmapped page: err %v", err)
	}
	if err := as.Map(addr, PageSize, PermRead); err != nil {
		t.Fatal(err)
	}
	got, err := as.Read(addr+8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 4)) {
		t.Errorf("re-mapped page reads % x, want zeros", got)
	}
	if perm, _ := as.PermAt(addr); perm != PermRead {
		t.Errorf("re-mapped page perm %v, want %v", perm, PermRead)
	}
	if _, err := as.FetchExec(addr+8, 4, nil); !sameFault(err, &Fault{Addr: addr + 8, Access: AccessExec}) {
		t.Errorf("fetch from re-mapped r-- page: err %v, want protection fault", err)
	}
}

// TestUnwrittenPagesShareZeroPage checks that reading and fetching never
// back a page, and that the first write backs only the page it touches.
func TestUnwrittenPagesShareZeroPage(t *testing.T) {
	as := NewAddressSpace()
	const addr = 0x80000
	if err := as.Map(addr, 2*PageSize, PermRWX); err != nil {
		t.Fatal(err)
	}
	if _, err := as.Read(addr, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := as.FetchExec(addr+PageSize-2, 8, nil); err != nil {
		t.Fatal(err)
	}
	first, second := as.pages[addr/PageSize], as.pages[addr/PageSize+1]
	if first.data != nil || second.data != nil {
		t.Fatal("a read backed a page")
	}
	if err := as.WriteUint(addr+PageSize+16, 8, 0xfeed); err != nil {
		t.Fatal(err)
	}
	if first.data != nil || second.data == nil {
		t.Fatal("write backed the wrong page")
	}
	if zeroPage != ([PageSize]byte{}) {
		t.Fatal("shared zero page was written")
	}
}

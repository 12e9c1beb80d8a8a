// Package mem implements the paged virtual address space used by simulated
// processes: 4 KiB pages, per-page R/W/X permissions, precise fault reporting,
// and a seeded ASLR allocator.
//
// Pages are backed lazily: a mapped page has no storage until its first
// write, and reads or instruction fetches of an unwritten page see one
// shared zero page. Every page-number lookup goes through a small
// direct-mapped translation cache in the AddressSpace, which remembers
// hits only; Unmap clears it, and Protect edits the page it points to.
//
// Concurrency: an AddressSpace belongs to one goroutine. Reads are not
// safe to share either, because a lookup updates the translation cache.
// Separate allocators may run on separate goroutines at once; those with
// the same seed share one draw stream, guarded by a mutex.
//
// Faults are ordinary error values (*Fault) rather than panics, so the VM,
// the simulated kernel and analysis tooling can all distinguish "the access
// hit unmapped memory" from "the access hit mapped memory with the wrong
// permission" — a distinction the paper's mapped-only exception policy
// (§VII-C) depends on.
package mem

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
)

// PageSize is the granularity of mappings and permissions.
const PageSize = 4096

// Perm is a page permission bitmask.
type Perm uint8

// Permission bits.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec

	PermRW  = PermRead | PermWrite
	PermRX  = PermRead | PermExec
	PermRWX = PermRead | PermWrite | PermExec
)

// String renders the permission like "r-x".
func (p Perm) String() string {
	b := []byte("---")
	if p&PermRead != 0 {
		b[0] = 'r'
	}
	if p&PermWrite != 0 {
		b[1] = 'w'
	}
	if p&PermExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Access describes the kind of memory access that faulted.
type Access uint8

// Access kinds.
const (
	AccessRead Access = iota + 1
	AccessWrite
	AccessExec
)

// String returns "read", "write" or "exec".
func (a Access) String() string {
	switch a {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessExec:
		return "exec"
	default:
		return "access?"
	}
}

func (a Access) perm() Perm {
	switch a {
	case AccessRead:
		return PermRead
	case AccessWrite:
		return PermWrite
	case AccessExec:
		return PermExec
	default:
		return 0
	}
}

// Fault reports a failed memory access. Unmapped distinguishes an access to
// memory with no mapping at all from one that violated permissions on a
// mapped page.
type Fault struct {
	Addr     uint64
	Access   Access
	Unmapped bool
}

// Error implements error.
func (f *Fault) Error() string {
	kind := "protection"
	if f.Unmapped {
		kind = "unmapped"
	}
	return fmt.Sprintf("%s fault: %s at %#x", kind, f.Access, f.Addr)
}

// page is one mapped page. data stays nil until the first write, so a page
// that is only ever read (untouched stack, BSS, guard space) costs no backing
// store; reads of such a page see zeroPage.
type page struct {
	data *[PageSize]byte
	perm Perm
}

// zeroPage backs every page that has not been written. Nothing writes it.
var zeroPage [PageSize]byte

// bytes returns the page contents for reading.
func (p *page) bytes() *[PageSize]byte {
	if p.data == nil {
		return &zeroPage
	}
	return p.data
}

// writable returns the page contents for writing, backing the page first.
func (p *page) writable() *[PageSize]byte {
	if p.data == nil {
		p.data = new([PageSize]byte)
	}
	return p.data
}

// tlbSize is the number of entries in the page-translation cache. It is
// direct mapped on the low page-number bits, so an instruction page, a
// stack page and a data page usually sit in separate entries.
const tlbSize = 4

// tlbEntry caches one page-number to page translation; p == nil marks an
// empty entry.
type tlbEntry struct {
	pn uint64
	p  *page
}

// AddressSpace is a sparse 64-bit paged address space. It is not safe for
// concurrent use, not even for reads: every lookup, reads included, updates
// the translation cache. The VM serializes all accesses.
type AddressSpace struct {
	pages map[uint64]*page // keyed by addr >> 12
	tlb   [tlbSize]tlbEntry
}

// NewAddressSpace returns an empty address space.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{pages: make(map[uint64]*page)}
}

// lookup translates a page number to its page, or nil when it is unmapped.
// Only hits are cached, so mapping a page needs no invalidation; Unmap
// clears the cache, and Protect edits the shared *page a cached entry
// points to.
func (as *AddressSpace) lookup(pn uint64) *page {
	e := &as.tlb[pn%tlbSize]
	if e.p != nil && e.pn == pn {
		return e.p
	}
	p := as.pages[pn]
	if p != nil {
		*e = tlbEntry{pn: pn, p: p}
	}
	return p
}

// Map creates pages covering [addr, addr+length) with the given permission.
// addr and length must be page aligned and the range must not overlap an
// existing mapping.
func (as *AddressSpace) Map(addr, length uint64, perm Perm) error {
	if addr%PageSize != 0 || length%PageSize != 0 {
		return fmt.Errorf("map %#x+%#x: not page aligned", addr, length)
	}
	if length == 0 {
		return fmt.Errorf("map %#x: zero length", addr)
	}
	first, n := addr/PageSize, length/PageSize
	for i := uint64(0); i < n; i++ {
		if as.lookup(first+i) != nil {
			return fmt.Errorf("map %#x+%#x: overlaps existing page %#x", addr, length, (first+i)*PageSize)
		}
	}
	for i := uint64(0); i < n; i++ {
		as.pages[first+i] = &page{perm: perm}
	}
	return nil
}

// Unmap removes the pages covering [addr, addr+length). Unmapping holes is
// not an error, mirroring munmap semantics.
func (as *AddressSpace) Unmap(addr, length uint64) error {
	if addr%PageSize != 0 || length%PageSize != 0 {
		return fmt.Errorf("unmap %#x+%#x: not page aligned", addr, length)
	}
	first, n := addr/PageSize, length/PageSize
	for i := uint64(0); i < n; i++ {
		delete(as.pages, first+i)
	}
	as.tlb = [tlbSize]tlbEntry{}
	return nil
}

// Protect changes the permission of all pages in [addr, addr+length). Every
// page in the range must be mapped.
func (as *AddressSpace) Protect(addr, length uint64, perm Perm) error {
	if addr%PageSize != 0 || length%PageSize != 0 {
		return fmt.Errorf("protect %#x+%#x: not page aligned", addr, length)
	}
	first, n := addr/PageSize, length/PageSize
	for i := uint64(0); i < n; i++ {
		if as.lookup(first+i) == nil {
			return &Fault{Addr: (first + i) * PageSize, Access: AccessWrite, Unmapped: true}
		}
	}
	for i := uint64(0); i < n; i++ {
		as.lookup(first + i).perm = perm
	}
	return nil
}

// Mapped reports whether addr lies on a mapped page.
func (as *AddressSpace) Mapped(addr uint64) bool {
	return as.lookup(addr/PageSize) != nil
}

// PermAt returns the permission of the page containing addr, and whether the
// page is mapped.
func (as *AddressSpace) PermAt(addr uint64) (Perm, bool) {
	p := as.lookup(addr / PageSize)
	if p == nil {
		return 0, false
	}
	return p.perm, true
}

// Check verifies that the whole range [addr, addr+length) is mapped with the
// permission needed for the given access, without transferring data. A nil
// return guarantees Read/Write on the same range cannot fault.
func (as *AddressSpace) Check(addr, length uint64, access Access) error {
	if length == 0 {
		return nil
	}
	need := access.perm()
	end := addr + length - 1
	if end < addr { // wrap-around
		return &Fault{Addr: addr, Access: access, Unmapped: true}
	}
	for pg := addr / PageSize; pg <= end/PageSize; pg++ {
		p := as.lookup(pg)
		if p == nil {
			return &Fault{Addr: maxU64(pg*PageSize, addr), Access: access, Unmapped: true}
		}
		if p.perm&need == 0 {
			return &Fault{Addr: maxU64(pg*PageSize, addr), Access: access}
		}
	}
	return nil
}

// Read copies length bytes starting at addr into a fresh slice, checking
// read permission.
func (as *AddressSpace) Read(addr, length uint64) ([]byte, error) {
	if err := as.Check(addr, length, AccessRead); err != nil {
		return nil, err
	}
	out := make([]byte, length)
	as.copyOut(addr, out)
	return out, nil
}

// ReadInto fills buf from memory starting at addr, checking read permission.
func (as *AddressSpace) ReadInto(addr uint64, buf []byte) error {
	if err := as.Check(addr, uint64(len(buf)), AccessRead); err != nil {
		return err
	}
	as.copyOut(addr, buf)
	return nil
}

// Write copies data into memory at addr, checking write permission.
func (as *AddressSpace) Write(addr uint64, data []byte) error {
	if err := as.Check(addr, uint64(len(data)), AccessWrite); err != nil {
		return err
	}
	as.copyIn(addr, data)
	return nil
}

// WriteForce copies data into memory at addr ignoring write permission, but
// still requiring the pages to be mapped. Loaders and attacker corruption
// primitives use this.
func (as *AddressSpace) WriteForce(addr uint64, data []byte) error {
	length := uint64(len(data))
	if length == 0 {
		return nil
	}
	end := addr + length - 1
	for pg := addr / PageSize; pg <= end/PageSize; pg++ {
		if as.lookup(pg) == nil {
			return &Fault{Addr: pg * PageSize, Access: AccessWrite, Unmapped: true}
		}
	}
	as.copyIn(addr, data)
	return nil
}

// ReadUint reads a little-endian unsigned integer of the given byte width.
func (as *AddressSpace) ReadUint(addr uint64, size int) (uint64, error) {
	var buf [8]byte
	if err := as.ReadInto(addr, buf[:size]); err != nil {
		return 0, err
	}
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(buf[i])
	}
	return v, nil
}

// WriteUint writes a little-endian unsigned integer of the given byte width.
func (as *AddressSpace) WriteUint(addr uint64, size int, v uint64) error {
	var buf [8]byte
	for i := 0; i < size; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	return as.Write(addr, buf[:size])
}

// FetchExec reads up to max bytes of executable memory at addr for
// instruction decoding. It returns however many contiguous executable bytes
// are available (at least 1), or a fault if addr itself is not executable.
func (as *AddressSpace) FetchExec(addr uint64, max int, buf []byte) ([]byte, error) {
	if max <= 0 {
		return nil, nil
	}
	p := as.lookup(addr / PageSize)
	if p == nil {
		return nil, &Fault{Addr: addr, Access: AccessExec, Unmapped: true}
	}
	if p.perm&PermExec == 0 {
		return nil, &Fault{Addr: addr, Access: AccessExec}
	}
	buf = buf[:0]
	for {
		off := addr % PageSize
		take := min(PageSize-off, uint64(max-len(buf)))
		buf = append(buf, p.bytes()[off:off+take]...)
		addr += take
		if len(buf) == max {
			return buf, nil
		}
		if p = as.lookup(addr / PageSize); p == nil || p.perm&PermExec == 0 {
			return buf, nil
		}
	}
}

// Regions returns the mapped regions as sorted (addr, length, perm) triples,
// coalescing adjacent pages with identical permissions.
func (as *AddressSpace) Regions() []Region {
	if len(as.pages) == 0 {
		return nil
	}
	keys := make([]uint64, 0, len(as.pages))
	for k := range as.pages {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	var out []Region
	cur := Region{Addr: keys[0] * PageSize, Length: PageSize, Perm: as.pages[keys[0]].perm}
	for _, k := range keys[1:] {
		p := as.pages[k]
		if k*PageSize == cur.Addr+cur.Length && p.perm == cur.Perm {
			cur.Length += PageSize
			continue
		}
		out = append(out, cur)
		cur = Region{Addr: k * PageSize, Length: PageSize, Perm: p.perm}
	}
	return append(out, cur)
}

// Region is a coalesced run of identically-permissioned pages.
type Region struct {
	Addr   uint64
	Length uint64
	Perm   Perm
}

// String renders the region like "[0x1000, 0x3000) rw-".
func (r Region) String() string {
	return fmt.Sprintf("[%#x, %#x) %s", r.Addr, r.Addr+r.Length, r.Perm)
}

// Contains reports whether addr falls inside the region.
func (r Region) Contains(addr uint64) bool {
	return addr >= r.Addr && addr < r.Addr+r.Length
}

func (as *AddressSpace) copyOut(addr uint64, buf []byte) {
	for len(buf) > 0 {
		p := as.lookup(addr / PageSize)
		off := addr % PageSize
		n := copy(buf, p.bytes()[off:])
		buf = buf[n:]
		addr += uint64(n)
	}
}

func (as *AddressSpace) copyIn(addr uint64, data []byte) {
	for len(data) > 0 {
		p := as.lookup(addr / PageSize)
		off := addr % PageSize
		n := copy(p.writable()[off:], data)
		data = data[n:]
		addr += uint64(n)
	}
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// Allocator hands out randomized page-aligned base addresses inside a fixed
// arena, modelling ASLR. It is deterministic for a given seed, so every
// experiment in this repository is reproducible.
type Allocator struct {
	rng  *rand.Rand
	cur  cursor
	as   *AddressSpace
	low  uint64
	high uint64
}

// NewAllocator creates an allocator placing mappings inside [low, high) of
// the given address space. low and high must be page aligned.
//
// The allocator draws exactly the values rand.NewSource(seed) yields, but
// allocators with the same seed share one stream of those draws, so a seed
// is expanded once however many processes use it.
func NewAllocator(as *AddressSpace, low, high uint64, seed int64) *Allocator {
	a := &Allocator{
		cur:  cursor{s: streamFor(seed)},
		as:   as,
		low:  low,
		high: high,
	}
	a.rng = rand.New(&a.cur)
	return a
}

// streamCap bounds the draws a shared stream records. A cursor that reads
// past it continues on a private source, so a long-lived process that keeps
// allocating does not grow the shared stream.
const streamCap = 4096

// drawStream is the append-only sequence of Int63 draws of one
// rand.NewSource(seed). Drawn values never change, so a cursor may read a
// snapshot of draws without the lock.
type drawStream struct {
	seed  int64
	mu    sync.Mutex
	src   rand.Source
	draws []int64
}

// lastStream holds the most recently used seed's stream. A different seed
// replaces it rather than joining a map, so memory stays bounded however
// many seeds a long-running service sees; a miss costs one NewSource, as an
// allocator without sharing would.
var lastStream atomic.Pointer[drawStream]

func streamFor(seed int64) *drawStream {
	if s := lastStream.Load(); s != nil && s.seed == seed {
		return s
	}
	s := &drawStream{seed: seed, src: rand.NewSource(seed)}
	lastStream.Store(s)
	return s
}

// through returns the draws with index n included, drawing as needed.
func (s *drawStream) through(n int) []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.draws) <= n {
		s.draws = append(s.draws, s.src.Int63())
	}
	return s.draws
}

// cursor is one allocator's rand.Source: it replays its stream from the
// first draw, then continues on a private source past streamCap.
type cursor struct {
	s    *drawStream
	seen []int64 // snapshot of s.draws
	next int
	own  rand.Source
}

func (c *cursor) Int63() int64 {
	if c.own != nil {
		return c.own.Int63()
	}
	if c.next == len(c.seen) {
		if c.next == streamCap {
			c.own = rand.NewSource(c.s.seed)
			for range streamCap {
				c.own.Int63()
			}
			return c.own.Int63()
		}
		c.seen = c.s.through(c.next)
	}
	v := c.seen[c.next]
	c.next++
	return v
}

// Seed restarts the cursor on seed's stream, as reseeding a source would.
func (c *cursor) Seed(seed int64) {
	*c = cursor{s: streamFor(seed)}
}

// Alloc maps length bytes (rounded up to pages) at a randomized address and
// returns the base. It retries until it finds a free slot.
func (a *Allocator) Alloc(length uint64, perm Perm) (uint64, error) {
	length = RoundUp(length)
	if length == 0 {
		length = PageSize
	}
	span := (a.high - a.low - length) / PageSize
	if a.high-a.low < length || span == 0 {
		return 0, fmt.Errorf("alloc %#x: arena [%#x,%#x) too small", length, a.low, a.high)
	}
	const maxTries = 4096
	for try := 0; try < maxTries; try++ {
		base := a.low + uint64(a.rng.Int63n(int64(span)))*PageSize
		if err := a.as.Map(base, length, perm); err == nil {
			return base, nil
		}
	}
	return 0, fmt.Errorf("alloc %#x: no free slot after retries", length)
}

// RoundUp rounds n up to a multiple of PageSize.
func RoundUp(n uint64) uint64 {
	return (n + PageSize - 1) &^ uint64(PageSize-1)
}

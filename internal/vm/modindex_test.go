package vm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"crashresist/internal/bin"
	"crashresist/internal/mem"
)

// linearFindModule is the reference FindModule: a scan over the modules in
// load order, recomputing each span from the image.
func linearFindModule(p *Process, addr uint64) (*bin.Module, bool) {
	for _, m := range p.Modules() {
		if addr >= m.Base && addr < m.Base+m.Image.Span() {
			return m, true
		}
	}
	return nil, false
}

// loadRandomImages loads n libraries of seeded random sizes, a few of them
// empty (zero span), at the process allocator's seeded random bases.
func loadRandomImages(t *testing.T, p *Process, rng *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		img := &bin.Image{Name: fmt.Sprintf("m%05d.dll", i), Kind: bin.KindLibrary}
		if rng.Intn(50) != 0 {
			img.Text = make([]byte, 1+rng.Intn(2*mem.PageSize))
			img.Data = make([]byte, rng.Intn(200))
			img.BSSSize = uint32(rng.Intn(3 * mem.PageSize))
		}
		if _, err := p.LoadImage(img); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFindModuleMatchesLinearScan checks the address index against the
// linear reference at every module boundary, in the gaps between modules
// and outside the populated range, for sparse ASLR layouts and for a dense
// arena where modules abut.
func TestFindModuleMatchesLinearScan(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		dense bool
	}{
		{"one", 1, false},
		{"few", 7, false},
		{"hundreds", 300, false},
		{"thousands", 3000, false},
		{"dense", 500, true},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				p := NewProcess(Config{Platform: PlatformWindows, Seed: seed})
				if tc.dense {
					// About twice the room the modules need, so some
					// end exactly where the next one begins.
					const low = arenaLow
					p.Alloc = mem.NewAllocator(p.AS, low, low+uint64(tc.n)*8*mem.PageSize, seed)
				}
				rng := rand.New(rand.NewSource(seed))
				loadRandomImages(t, p, rng, tc.n)

				probes := []uint64{0, 1, arenaLow - 1, arenaLow, arenaHigh, math.MaxUint64}
				var lowest, highest uint64 = math.MaxUint64, 0
				for _, m := range p.Modules() {
					end := m.Base + m.Image.Span()
					if m.End() != end {
						t.Fatalf("%s: End() = %#x, want %#x", m.Image.Name, m.End(), end)
					}
					probes = append(probes, m.Base-1, m.Base, m.Base+1, end-1, end, end+1, m.Base+(end-m.Base)/2)
					lowest, highest = min(lowest, m.Base), max(highest, end)
				}
				probes = append(probes, lowest-1, highest, highest+mem.PageSize)
				for i := 0; i < 2000; i++ {
					probes = append(probes, lowest+uint64(rng.Int63n(int64(highest-lowest+1))))
				}
				hits := 0
				for _, a := range probes {
					got, gotOK := p.FindModule(a)
					want, wantOK := linearFindModule(p, a)
					if got != want || gotOK != wantOK {
						t.Fatalf("FindModule(%#x) = %v %v, linear scan = %v %v", a, modName(got), gotOK, modName(want), wantOK)
					}
					if gotOK {
						hits++
					}
				}
				if hits == 0 {
					t.Fatal("no probe landed in a module")
				}
				if tc.dense && !hasAbuttingModules(p) {
					t.Fatal("dense layout has no abutting modules")
				}
			})
		}
	}
}

// hasAbuttingModules reports whether some module begins exactly where
// another ends.
func hasAbuttingModules(p *Process) bool {
	ends := make(map[uint64]bool)
	for _, m := range p.Modules() {
		if m.End() > m.Base {
			ends[m.End()] = true
		}
	}
	for _, m := range p.Modules() {
		if m.End() > m.Base && ends[m.Base] {
			return true
		}
	}
	return false
}

func modName(m *bin.Module) string {
	if m == nil {
		return "<nil>"
	}
	return m.Image.Name
}

// TestFindModuleEmptyProcess pins the index's behaviour before any load.
func TestFindModuleEmptyProcess(t *testing.T) {
	p := NewProcess(Config{Platform: PlatformWindows, Seed: 1})
	for _, a := range []uint64{0, arenaLow, math.MaxUint64} {
		if m, ok := p.FindModule(a); ok {
			t.Errorf("FindModule(%#x) = %s in an empty process", a, m.Image.Name)
		}
	}
}

package mem

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// refAllocs replays Alloc's placement arithmetic on a fresh
// rand.New(rand.NewSource(seed)), tracking occupied pages itself, and
// returns the bases it places plus the number of draws that collided.
func refAllocs(seed int64, low, high uint64, lengths []uint64) (bases []uint64, collisions int) {
	rng := rand.New(rand.NewSource(seed))
	used := make(map[uint64]bool)
	for _, length := range lengths {
		span := (high - low - length) / PageSize
		for {
			base := low + uint64(rng.Int63n(int64(span)))*PageSize
			free := true
			for pg := base / PageSize; pg < (base+length)/PageSize; pg++ {
				free = free && !used[pg]
			}
			if !free {
				collisions++
				continue
			}
			for pg := base / PageSize; pg < (base+length)/PageSize; pg++ {
				used[pg] = true
			}
			bases = append(bases, base)
			break
		}
	}
	return bases, collisions
}

// gotAllocs places lengths with a fresh NewAllocator over an empty space.
// It reports failure with Errorf, so goroutines may call it.
func gotAllocs(t testing.TB, seed int64, low, high uint64, lengths []uint64) []uint64 {
	t.Helper()
	a := NewAllocator(NewAddressSpace(), low, high, seed)
	var out []uint64
	for _, length := range lengths {
		base, err := a.Alloc(length, PermRW)
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
			return nil
		}
		out = append(out, base)
	}
	return out
}

func pinLengths() []uint64 {
	return []uint64{PageSize, 3 * PageSize, 16 * PageSize, PageSize, 2 * PageSize}
}

// TestAllocatorStreamPin pins the shared draw stream to the addresses a
// private rand.NewSource(seed) places, with seeds interleaved A, B, A so
// the most-recent stream is replaced and rebuilt between allocators.
func TestAllocatorStreamPin(t *testing.T) {
	const low, high = 0x10000, 0x10000000
	lengths := pinLengths()
	for _, seeds := range [][]int64{{42, 43, 42}, {0, -7, 0}, {1 << 40, 5, 1 << 40, 5}} {
		for _, seed := range seeds {
			want, _ := refAllocs(seed, low, high, lengths)
			if got := gotAllocs(t, seed, low, high, lengths); !slices.Equal(got, want) {
				t.Errorf("seed %d (order %v): bases %#x, want %#x", seed, seeds, got, want)
			}
		}
	}
}

// TestAllocatorStreamConcurrent has 8 goroutines allocate with one seed at
// once; run under -race it also checks the stream's locking.
func TestAllocatorStreamConcurrent(t *testing.T) {
	const low, high, seed = 0x10000, 0x10000000, 1234
	lengths := pinLengths()
	want, _ := refAllocs(seed, low, high, lengths)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got := gotAllocs(t, seed, low, high, lengths); !slices.Equal(got, want) {
					t.Errorf("bases %#x, want %#x", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestAllocatorStreamCollisions uses an arena so small that placements
// collide, so the allocator retries and draws past one value per Alloc.
func TestAllocatorStreamCollisions(t *testing.T) {
	const low, high = 0x10000, 0x10000 + 24*PageSize
	lengths := make([]uint64, 12)
	for i := range lengths {
		lengths[i] = PageSize
	}
	for _, seed := range []int64{3, 99, 3} {
		want, collisions := refAllocs(seed, low, high, lengths)
		if collisions == 0 {
			t.Fatalf("seed %d: arena too roomy, no collision exercised", seed)
		}
		if got := gotAllocs(t, seed, low, high, lengths); !slices.Equal(got, want) {
			t.Errorf("seed %d: bases %#x, want %#x", seed, got, want)
		}
	}
}

// TestAllocatorStreamPastCap allocates past streamCap draws, where the
// cursor leaves the shared stream for a private source.
func TestAllocatorStreamPastCap(t *testing.T) {
	const low, high, seed = 0x10000, 0x100000000, 77
	lengths := make([]uint64, streamCap+100)
	for i := range lengths {
		lengths[i] = PageSize
	}
	want, _ := refAllocs(seed, low, high, lengths)
	for run := 0; run < 2; run++ {
		if got := gotAllocs(t, seed, low, high, lengths); !slices.Equal(got, want) {
			t.Fatalf("run %d: bases diverge from rand.NewSource past the stream cap", run)
		}
	}
}

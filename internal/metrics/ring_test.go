package metrics

import "testing"

func TestRingPushEvicts(t *testing.T) {
	r := NewRing[int](3)
	for i := 1; i <= 3; i++ {
		if old, ok := r.Push(i); ok {
			t.Fatalf("push %d evicted %d before capacity", i, old)
		}
	}
	if got := r.Items(); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("items = %v", got)
	}
	old, ok := r.Push(4)
	if !ok || old != 1 {
		t.Fatalf("push past capacity: evicted %d ok=%v, want 1 true", old, ok)
	}
	if got := r.Items(); len(got) != 3 || got[0] != 2 || got[2] != 4 {
		t.Fatalf("items after eviction = %v", got)
	}
	if r.Len() != 3 {
		t.Fatalf("len = %d, want 3", r.Len())
	}
}

func TestRingItemsIsACopy(t *testing.T) {
	r := NewRing[string](2)
	r.Push("a")
	items := r.Items()
	items[0] = "mutated"
	if got := r.Items()[0]; got != "a" {
		t.Fatalf("Items leaked internal storage: %q", got)
	}
}

// A zero-capacity ring accepts nothing: every push evicts its own value,
// so owners can disable retention without special cases.
func TestRingZeroCapacity(t *testing.T) {
	r := NewRing[int](0)
	old, ok := r.Push(7)
	if !ok || old != 7 {
		t.Fatalf("zero-cap push: evicted %d ok=%v, want 7 true", old, ok)
	}
	if r.Len() != 0 {
		t.Fatalf("zero-cap ring holds %d items", r.Len())
	}
}

package metrics

// Ring is a bounded FIFO retention buffer: once full, each Push evicts the
// oldest element. The Registry keeps its recent-run trace ring in one, and
// the discovery service (internal/service) retains completed job results
// the same way, so both retention surfaces share one eviction policy.
//
// Ring is not synchronized; owners guard it with their own mutex.
type Ring[T any] struct {
	cap   int
	items []T
}

// NewRing returns a ring retaining at most capacity elements. A capacity
// <= 0 yields a ring that retains nothing (every Push evicts immediately).
func NewRing[T any](capacity int) *Ring[T] {
	if capacity < 0 {
		capacity = 0
	}
	return &Ring[T]{cap: capacity}
}

// Push appends v, evicting and returning the oldest element once the ring
// is full. The boolean reports whether an eviction happened.
func (r *Ring[T]) Push(v T) (evicted T, ok bool) {
	if r.cap == 0 {
		return v, true
	}
	if len(r.items) == r.cap {
		evicted = r.items[0]
		ok = true
		copy(r.items, r.items[1:])
		r.items[len(r.items)-1] = v
		return evicted, ok
	}
	r.items = append(r.items, v)
	return evicted, false
}

// Items returns the retained elements, oldest first. The slice is a copy.
func (r *Ring[T]) Items() []T {
	return append([]T(nil), r.items...)
}

// Len returns the number of retained elements.
func (r *Ring[T]) Len() int { return len(r.items) }

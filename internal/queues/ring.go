// Package queues provides the bounded FIFO ring buffer underlying the
// paper's hardware queues: the Branch Outcome Queue (BOQ), Load Value Queue
// (LVQ), Dependence Trace Queue (DTQ), store buffer and trailing fetch queue.
// Each of those queues is a Ring of its own entry type, owned by the package
// that implements the corresponding mechanism.
package queues

import "fmt"

// Ring is a bounded FIFO queue. The zero value is unusable; construct with
// NewRing. Ring is not safe for concurrent use: the simulator is
// single-threaded by design (cycle-level determinism).
type Ring[T any] struct {
	buf  []T
	head int // index of the oldest element
	n    int // number of elements
}

// NewRing returns a ring with the given capacity. It panics on a
// non-positive capacity (capacities are configuration constants).
func NewRing[T any](capacity int) *Ring[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("queues: invalid ring capacity %d", capacity))
	}
	return &Ring[T]{buf: make([]T, capacity)}
}

// Cap returns the ring's capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Len returns the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// Empty reports whether the ring holds no elements.
func (r *Ring[T]) Empty() bool { return r.n == 0 }

// Full reports whether the ring is at capacity.
func (r *Ring[T]) Full() bool { return r.n == len(r.buf) }

// Free returns the number of unused slots.
func (r *Ring[T]) Free() int { return len(r.buf) - r.n }

// slot maps the i-th oldest position (0 <= i < Cap) to its buffer index.
func (r *Ring[T]) slot(i int) int {
	j := r.head + i
	if j >= len(r.buf) {
		j -= len(r.buf)
	}
	return j
}

// Push appends v; it reports false (and queues nothing) when full.
func (r *Ring[T]) Push(v T) bool {
	if r.Full() {
		return false
	}
	r.buf[r.slot(r.n)] = v
	r.n++
	return true
}

// Pop removes and returns the oldest element; ok is false when empty.
func (r *Ring[T]) Pop() (v T, ok bool) {
	if r.n == 0 {
		return v, false
	}
	v = r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head = r.slot(1)
	r.n--
	return v, true
}

// Peek returns the oldest element without removing it; ok is false when
// empty.
func (r *Ring[T]) Peek() (v T, ok bool) {
	if r.n == 0 {
		return v, false
	}
	return r.buf[r.head], true
}

// PeekRef returns a pointer to the oldest element, or nil when empty. The
// pointer is valid until the element is popped; it lets callers read large
// elements in place instead of copying them.
func (r *Ring[T]) PeekRef() *T {
	if r.n == 0 {
		return nil
	}
	return &r.buf[r.head]
}

// At returns the i-th oldest element (0 = head). It panics when i is out of
// range, mirroring slice indexing.
func (r *Ring[T]) At(i int) T { return *r.AtRef(i) }

// AtRef returns a pointer to the i-th oldest element (0 = head), valid until
// that element is popped. It panics when i is out of range.
func (r *Ring[T]) AtRef(i int) *T {
	if i < 0 || i >= r.n {
		panic(fmt.Sprintf("queues: index %d out of range [0,%d)", i, r.n))
	}
	return &r.buf[r.slot(i)]
}

// SetAt replaces the i-th oldest element (0 = head). It panics when i is out
// of range.
func (r *Ring[T]) SetAt(i int, v T) { *r.AtRef(i) = v }

// Reset empties the ring.
func (r *Ring[T]) Reset() {
	var zero T
	for i := 0; i < r.n; i++ {
		r.buf[r.slot(i)] = zero
	}
	r.head, r.n = 0, 0
}

// Truncate keeps the n oldest elements and drops the rest. It panics when n
// is out of range [0, Len].
func (r *Ring[T]) Truncate(n int) {
	if n < 0 || n > r.n {
		panic(fmt.Sprintf("queues: truncate to %d out of range [0,%d]", n, r.n))
	}
	var zero T
	for i := n; i < r.n; i++ {
		r.buf[r.slot(i)] = zero
	}
	r.n = n
}

// Clone returns an independent copy of the ring. Elements are copied by
// value: rings of pointers share the pointed-to records, and owners that need
// deep isolation (the DTQ, the trailing packet queue) remap the elements
// after cloning.
func (r *Ring[T]) Clone() *Ring[T] {
	c := &Ring[T]{buf: make([]T, len(r.buf)), head: r.head, n: r.n}
	copy(c.buf, r.buf)
	return c
}

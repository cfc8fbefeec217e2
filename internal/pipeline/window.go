package pipeline

import (
	"fmt"
	"math/bits"
)

// window is a virtual-index-addressed circular instruction window, used for
// both the active list and the load/store queue of each thread context.
//
// The leading/single/SRT-trailing threads allocate entries in order at the
// tail. The BlackJack trailing thread places entries at explicit virtual
// indices borrowed from the leading thread (Section 4.3.1): an entry whose
// virtual index is j past the head occupies the physical slot j past the head
// slot, and the frontend stalls when j would exceed the structure size —
// out-of-order fetch thus leaves the appropriate number of empty slots ahead
// of early-fetched instructions.
type window struct {
	slots []*UOp
	// stores, in a load/store queue only, has the bit of every slot holding
	// a store set, so store-to-load checks step over stores alone.
	stores []uint64
	head   uint64 // virtual index of the oldest live entry
	tail   uint64 // next in-order virtual index (in-order allocators only)
	count  int
}

func newWindow(n int) *window {
	w := &window{}
	w.init(n, false)
	return w
}

// newLSQ returns a window that also tracks which of its slots hold stores.
func newLSQ(n int) *window {
	w := &window{}
	w.init(n, true)
	return w
}

// init empties w and sizes it to n slots, with a store bitmap when
// lsq is set, reusing its storage.
func (w *window) init(n int, lsq bool) {
	if n <= 0 {
		panic(fmt.Sprintf("pipeline: invalid window size %d", n))
	}
	slots := resize(w.slots, n)
	clear(slots)
	var stores []uint64
	if lsq {
		stores = resize(w.stores, (n+63)/64)
		clear(stores)
	}
	*w = window{slots: slots, stores: stores}
}

// copyFrom makes w a deep copy of src, its uops mapped through cu, reusing
// w's storage.
func (w *window) copyFrom(src *window, cu func(*UOp) *UOp) {
	slots := resize(w.slots, len(src.slots))
	for i, u := range src.slots {
		slots[i] = cu(u)
	}
	var stores []uint64
	if src.stores != nil {
		stores = append(w.stores[:0], src.stores...)
	}
	*w = *src
	w.slots, w.stores = slots, stores
}

// resize returns s with length n, reusing its backing array when it is
// large enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// orNew returns p, or a new zero T when p is nil: the storage a rebuild
// reuses when the machine had it, and allocates when not.
func orNew[T any](p *T) *T {
	if p == nil {
		return new(T)
	}
	return p
}

func (w *window) size() int { return len(w.slots) }

// canPlace reports whether virtual index v falls inside the window.
func (w *window) canPlace(v uint64) bool {
	return v >= w.head && v-w.head < uint64(len(w.slots))
}

// place installs u at virtual index v (which must satisfy canPlace and be
// empty).
func (w *window) place(v uint64, u *UOp) {
	if !w.canPlace(v) {
		panic(fmt.Sprintf("pipeline: place %d outside window [%d,%d)", v, w.head, w.head+uint64(len(w.slots))))
	}
	i := v % uint64(len(w.slots))
	if w.slots[i] != nil {
		panic(fmt.Sprintf("pipeline: slot for virtual index %d occupied", v))
	}
	w.slots[i] = u
	if w.stores != nil && u.Inst.IsStore() {
		w.stores[i>>6] |= 1 << (i & 63)
	}
	w.count++
	if v >= w.tail {
		w.tail = v + 1
	}
}

// pushTail allocates the next in-order index and installs u there, returning
// the virtual index.
func (w *window) pushTail(u *UOp) uint64 {
	v := w.tail
	w.place(v, u)
	return v
}

// at returns the entry at virtual index v (nil when empty or out of window).
func (w *window) at(v uint64) *UOp {
	if !w.canPlace(v) {
		return nil
	}
	return w.slots[v%uint64(len(w.slots))]
}

// headUop returns the entry at the head (nil when empty or not yet placed).
func (w *window) headUop() *UOp {
	return w.slots[w.head%uint64(len(w.slots))]
}

// popHead removes the head entry and advances the head.
func (w *window) popHead() {
	i := w.head % uint64(len(w.slots))
	if w.slots[i] == nil {
		panic("pipeline: popHead on empty head slot")
	}
	w.slots[i] = nil
	w.clearStore(i)
	w.count--
	w.head++
	if w.tail < w.head {
		w.tail = w.head
	}
}

// clearAt removes the entry at virtual index v (squash path).
func (w *window) clearAt(v uint64) {
	i := v % uint64(len(w.slots))
	if w.slots[i] != nil {
		w.slots[i] = nil
		w.clearStore(i)
		w.count--
	}
}

// clearStore clears physical slot i's store bit.
func (w *window) clearStore(i uint64) {
	if w.stores != nil {
		w.stores[i>>6] &^= 1 << (i & 63)
	}
}

// prevStore returns the virtual index of the youngest store older than v:
// the largest index in [head, v) whose slot holds a store. It visits the
// store bitmap a word at a time, down from v and around the ring.
func (w *window) prevStore(v uint64) (uint64, bool) {
	n := uint64(len(w.slots))
	for v > w.head {
		// The slots from (v-1)%n down to the start of its bitmap word, or
		// to the head if that is nearer.
		i := (v - 1) % n
		span := min(i&63+1, v-w.head)
		word := w.stores[i>>6] << (63 - (i & 63)) // slot i at bit 63
		if word &= ^uint64(0) << (64 - span); word != 0 {
			return v - 1 - uint64(bits.LeadingZeros64(word)), true
		}
		v -= span
	}
	return 0, false
}

// shrinkTail rolls the in-order tail back to v (squash path; all entries at
// indices >= v must already be cleared).
func (w *window) shrinkTail(v uint64) {
	if v < w.head {
		v = w.head
	}
	w.tail = v
}

// occupancy returns the number of live entries.
func (w *window) occupancy() int { return w.count }

// full reports whether an in-order allocation would overflow.
func (w *window) full() bool { return w.tail-w.head >= uint64(len(w.slots)) }

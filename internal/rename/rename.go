// Package rename provides register-renaming building blocks: the physical
// register file (values plus ready-cycle timestamps), the free list, and
// mapping tables. The pipeline composes these per SMT context; the BlackJack
// core additionally uses a Map indexed by *leading physical register* for the
// trailing thread's double rename (Section 4.3.1 of the paper) and a second
// program-order Map for the commit-time dependence check (Section 4.4).
package rename

import (
	"fmt"
	"maps"
	"math"
	"slices"

	"blackjack/internal/queues"
)

// PhysReg names a physical register.
type PhysReg uint16

// None is the absent physical register (unmapped / no destination).
const None PhysReg = math.MaxUint16

// FarFuture is a ready-cycle meaning "value not yet available".
const FarFuture int64 = math.MaxInt64

// RegFile is a physical register file with per-register value and
// availability cycle. Construct with NewRegFile.
type RegFile struct {
	vals    []uint64
	readyAt []int64
}

// NewRegFile builds a file of n physical registers, all holding zero and
// immediately ready (cycle 0).
func NewRegFile(n int) *RegFile {
	f := &RegFile{}
	f.Init(n)
	return f
}

// Init makes f a file of n physical registers, all holding zero and
// immediately ready, reusing its storage: NewRegFile is Init on a zero
// RegFile.
func (f *RegFile) Init(n int) {
	if n <= 0 {
		panic(fmt.Sprintf("rename: invalid register file size %d", n))
	}
	f.vals = resize(f.vals, n)
	f.readyAt = resize(f.readyAt, n)
	clear(f.vals)
	clear(f.readyAt)
}

// resize returns s with length n, reusing its backing array when it is
// large enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// Size returns the number of physical registers.
func (f *RegFile) Size() int { return len(f.vals) }

// Value returns the value of p.
func (f *RegFile) Value(p PhysReg) uint64 { return f.vals[p] }

// SetValue writes p's value.
func (f *RegFile) SetValue(p PhysReg, v uint64) { f.vals[p] = v }

// ReadyAt returns the cycle at which p's value is (or becomes) available.
func (f *RegFile) ReadyAt(p PhysReg) int64 { return f.readyAt[p] }

// SetReadyAt sets the availability cycle for p.
func (f *RegFile) SetReadyAt(p PhysReg, cycle int64) { f.readyAt[p] = cycle }

// MarkPending marks p as awaiting a producer.
func (f *RegFile) MarkPending(p PhysReg) { f.readyAt[p] = FarFuture }

// Ready reports whether p's value is available at the given cycle.
func (f *RegFile) Ready(p PhysReg, cycle int64) bool { return f.readyAt[p] <= cycle }

// CopyFrom makes f an independent deep copy of src, reusing f's storage.
func (f *RegFile) CopyFrom(src *RegFile) {
	f.vals = append(f.vals[:0], src.vals...)
	f.readyAt = append(f.readyAt[:0], src.readyAt...)
}

// Equal reports whether f and o hold the same values and ready cycles.
func (f *RegFile) Equal(o *RegFile) bool {
	return slices.Equal(f.vals, o.vals) && slices.Equal(f.readyAt, o.readyAt)
}

// FreeList hands out physical registers.
type FreeList struct {
	ring queues.Ring[PhysReg]
	// free tracks membership when checking is enabled, turning double frees
	// into immediate panics instead of downstream corruption.
	free map[PhysReg]bool
}

// NewFreeList builds a free list containing regs [first, first+count).
func NewFreeList(first PhysReg, count int) *FreeList {
	fl := &FreeList{}
	fl.Init(first, count)
	return fl
}

// Init makes fl a list containing regs [first, first+count), with checking
// off, reusing its storage: NewFreeList is Init on a zero FreeList.
func (fl *FreeList) Init(first PhysReg, count int) {
	fl.ring.Init(count)
	for i := 0; i < count; i++ {
		fl.ring.Push(first + PhysReg(i))
	}
	fl.free = nil
}

// EnableChecking turns on double-free detection (used by tests and
// diagnostics; costs one map operation per Alloc/Free).
func (fl *FreeList) EnableChecking() {
	fl.free = make(map[PhysReg]bool, fl.ring.Len())
	for i := 0; i < fl.ring.Len(); i++ {
		fl.free[fl.ring.At(i)] = true
	}
}

// Len returns the number of free registers.
func (fl *FreeList) Len() int { return fl.ring.Len() }

// Alloc removes and returns a free register; ok is false when exhausted.
func (fl *FreeList) Alloc() (PhysReg, bool) {
	p, ok := fl.ring.Pop()
	if ok && fl.free != nil {
		delete(fl.free, p)
	}
	return p, ok
}

// Free returns p to the list. It panics if the list would overflow, which
// indicates a double-free bug in the caller (and, with checking enabled, on
// any double free).
func (fl *FreeList) Free(p PhysReg) {
	if fl.free != nil {
		if fl.free[p] {
			panic(fmt.Sprintf("rename: double free of physical register %d", p))
		}
		fl.free[p] = true
	}
	if !fl.ring.Push(p) {
		panic("rename: free list overflow (double free)")
	}
}

// CopyFrom makes fl an independent deep copy of src, reusing fl's storage
// and preserving the hand-out order (allocation order is architecturally
// visible: physical register names flow into the DTQ and the double-rename
// table).
func (fl *FreeList) CopyFrom(src *FreeList) {
	fl.ring.CopyFrom(&src.ring)
	fl.free = nil
	if src.free != nil {
		fl.free = maps.Clone(src.free)
	}
}

// Equal reports whether fl and o hand out the same registers in the same
// order. The double-free checking map mirrors the list and is not compared.
func (fl *FreeList) Equal(o *FreeList) bool { return queues.Equal(&fl.ring, &o.ring) }

// Snapshot returns the registers currently on the free list, oldest first.
// Intended for diagnostics and invariant-checking tests.
func (fl *FreeList) Snapshot() []PhysReg {
	out := make([]PhysReg, 0, fl.ring.Len())
	for i := 0; i < fl.ring.Len(); i++ {
		out = append(out, fl.ring.At(i))
	}
	return out
}

// Map is a mapping table from an index space (architectural registers, or
// leading physical registers for BlackJack's double rename) to physical
// registers.
type Map struct {
	entries []PhysReg
}

// NewMap builds a table of n entries, all None.
func NewMap(n int) *Map {
	m := &Map{}
	m.Init(n)
	return m
}

// Init makes m a table of n entries, all None, reusing its storage: NewMap
// is Init on a zero Map.
func (m *Map) Init(n int) {
	m.entries = resize(m.entries, n)
	m.Reset()
}

// Size returns the number of entries.
func (m *Map) Size() int { return len(m.entries) }

// Get returns the mapping for index i.
func (m *Map) Get(i int) PhysReg { return m.entries[i] }

// Set updates the mapping for index i and returns the previous mapping.
func (m *Map) Set(i int, p PhysReg) (old PhysReg) {
	old = m.entries[i]
	m.entries[i] = p
	return old
}

// CopyFrom makes m an independent copy of src, reusing m's storage.
func (m *Map) CopyFrom(src *Map) { m.entries = append(m.entries[:0], src.entries...) }

// Equal reports whether m and o hold the same mappings.
func (m *Map) Equal(o *Map) bool { return slices.Equal(m.entries, o.entries) }

// Reset sets every entry to None.
func (m *Map) Reset() {
	for i := range m.entries {
		m.entries[i] = None
	}
}

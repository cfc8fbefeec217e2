package queues

import (
	"testing"
	"testing/quick"
)

func TestRingBasicFIFO(t *testing.T) {
	r := NewRing[int](3)
	if !r.Empty() || r.Full() || r.Cap() != 3 || r.Free() != 3 {
		t.Fatalf("fresh ring state wrong: len=%d free=%d", r.Len(), r.Free())
	}
	for i := 1; i <= 3; i++ {
		if !r.Push(i) {
			t.Fatalf("Push(%d) failed", i)
		}
	}
	if r.Push(4) {
		t.Error("Push into full ring succeeded")
	}
	if v, ok := r.Peek(); !ok || v != 1 {
		t.Errorf("Peek = (%d,%v), want (1,true)", v, ok)
	}
	for i := 1; i <= 3; i++ {
		v, ok := r.Pop()
		if !ok || v != i {
			t.Errorf("Pop = (%d,%v), want (%d,true)", v, ok, i)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Error("Pop from empty ring succeeded")
	}
}

func TestRingWrapAround(t *testing.T) {
	r := NewRing[int](4)
	for round := 0; round < 10; round++ {
		for i := 0; i < 3; i++ {
			if !r.Push(round*10 + i) {
				t.Fatal("push failed")
			}
		}
		for i := 0; i < 3; i++ {
			v, ok := r.Pop()
			if !ok || v != round*10+i {
				t.Fatalf("round %d: Pop = (%d,%v), want %d", round, v, ok, round*10+i)
			}
		}
	}
}

func TestRingAtAndSetAt(t *testing.T) {
	r := NewRing[string](4)
	r.Push("a")
	r.Push("b")
	r.Push("c")
	r.Pop() // advance head so indexing crosses the wrap
	r.Push("d")
	r.Push("e")
	want := []string{"b", "c", "d", "e"}
	for i, w := range want {
		if got := r.At(i); got != w {
			t.Errorf("At(%d) = %q, want %q", i, got, w)
		}
	}
	r.SetAt(1, "C")
	if got := r.At(1); got != "C" {
		t.Errorf("after SetAt, At(1) = %q, want C", got)
	}
}

func TestRingAtPanicsOutOfRange(t *testing.T) {
	r := NewRing[int](2)
	r.Push(1)
	for _, i := range []int{-1, 1, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) did not panic", i)
				}
			}()
			r.At(i)
		}()
	}
}

func TestNewRingPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewRing(0) did not panic")
		}
	}()
	NewRing[int](0)
}

func TestRingReset(t *testing.T) {
	r := NewRing[int](3)
	r.Push(1)
	r.Push(2)
	r.Reset()
	if !r.Empty() {
		t.Error("ring not empty after Reset")
	}
	r.Push(9)
	if v, _ := r.Pop(); v != 9 {
		t.Error("ring unusable after Reset")
	}
}

func TestRingTruncate(t *testing.T) {
	r := NewRing[int](4)
	r.Push(0)
	r.Pop() // move head off zero so truncation crosses the wrap
	for i := 1; i <= 4; i++ {
		r.Push(i)
	}
	r.Truncate(2)
	if r.Len() != 2 || r.At(0) != 1 || r.At(1) != 2 {
		t.Fatalf("after Truncate(2): len=%d", r.Len())
	}
	// Ring must remain fully usable afterwards.
	r.Push(5)
	r.Push(6)
	for i, w := range []int{1, 2, 5, 6} {
		if got := r.At(i); got != w {
			t.Errorf("At(%d) = %d, want %d", i, got, w)
		}
	}
	r.Truncate(0)
	if !r.Empty() {
		t.Error("Truncate(0) left elements")
	}
	defer func() {
		if recover() == nil {
			t.Error("Truncate beyond Len did not panic")
		}
	}()
	r.Truncate(1)
}

func TestRingRefsAlias(t *testing.T) {
	r := NewRing[[2]int](3)
	if r.PeekRef() != nil {
		t.Fatal("PeekRef on empty ring is non-nil")
	}
	r.Push([2]int{1, 1})
	r.Push([2]int{2, 2})
	r.AtRef(1)[0] = 9
	r.PeekRef()[1] = 7
	if got := r.At(0); got != [2]int{1, 7} {
		t.Errorf("At(0) = %v, want [1 7]", got)
	}
	if got := r.At(1); got != [2]int{9, 2} {
		t.Errorf("At(1) = %v, want [9 2]", got)
	}
}

// Property: any sequence of pushes and pops behaves like a bounded FIFO
// modeled by a slice.
func TestQuickRingMatchesSliceModel(t *testing.T) {
	f := func(ops []uint8, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		r := NewRing[uint8](capacity)
		var model []uint8
		for i, op := range ops {
			if op%2 == 0 { // push
				pushed := r.Push(op)
				if pushed != (len(model) < capacity) {
					return false
				}
				if pushed {
					model = append(model, op)
				}
			} else { // pop
				v, ok := r.Pop()
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					if v != model[0] {
						return false
					}
					model = model[1:]
				}
			}
			if r.Len() != len(model) {
				return false
			}
			_ = i
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Equal compares live elements only: rings holding the same sequence at
// different buffer offsets are equal, and any differing element, length or
// capacity makes them unequal.
func TestRingEqualComparesLiveElements(t *testing.T) {
	a, b := NewRing[int](4), NewRing[int](4)
	for _, v := range []int{9, 9, 1, 2} {
		a.Push(v)
	}
	a.Pop()
	a.Pop()
	b.Push(1)
	b.Push(2)
	if !Equal(a, b) {
		t.Fatal("rings holding 1,2 at different offsets compare unequal")
	}
	b.SetAt(1, 3)
	if Equal(a, b) {
		t.Fatal("differing element not detected")
	}
	b.SetAt(1, 2)
	b.Push(5)
	if Equal(a, b) {
		t.Fatal("differing length not detected")
	}
	if Equal(a, NewRing[int](5)) || !Equal[int](nil, nil) || Equal(a, nil) {
		t.Fatal("capacity or nil handling wrong")
	}
}

// PushRef hands out the new tail slot zeroed, also where a popped or dropped
// element used to sit, and Drop removes the head without returning it.
func TestRingPushRefAndDrop(t *testing.T) {
	r := NewRing[[2]int](2)
	if r.Drop() {
		t.Fatal("Drop on an empty ring reported an element")
	}
	for i := 1; i <= 5; i++ {
		p := r.PushRef()
		if p == nil || *p != [2]int{} {
			t.Fatalf("push %d: PushRef = %v, want a zero slot", i, p)
		}
		p[0] = i
		if r.Full() {
			if r.PushRef() != nil {
				t.Fatal("PushRef on a full ring returned a slot")
			}
			if !r.Drop() {
				t.Fatal("Drop on a full ring reported none")
			}
		}
	}
	if r.Len() != 1 || r.At(0) != [2]int{5, 0} {
		t.Fatalf("ring holds %d elements, head %v; want [5 0] alone", r.Len(), r.At(0))
	}
}

// Init and CopyFrom rebuild a used ring: Init empties it to a new capacity,
// CopyFrom makes it equal to its source without aliasing it.
func TestRingInitAndCopyFrom(t *testing.T) {
	src, r := NewRing[int](3), NewRing[int](3)
	for _, v := range []int{7, 8, 9} {
		src.Push(v)
		r.Push(v * 10)
	}
	src.Pop()
	r.CopyFrom(src)
	if !Equal(r, src) {
		t.Fatal("a copy into a used ring differs from its source")
	}
	r.SetAt(0, 1)
	if src.At(0) != 8 {
		t.Fatal("the copy aliases its source")
	}
	r.Init(5)
	if !r.Empty() || r.Cap() != 5 || *r.PushRef() != 0 {
		t.Fatal("Init did not empty the ring to its new capacity")
	}
	r.Init(5)
	if !Equal(r, NewRing[int](5)) {
		t.Fatal("Init at the same capacity left elements behind")
	}
}

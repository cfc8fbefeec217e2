package pipeline

import (
	"math/rand"
	"testing"

	"blackjack/internal/isa"
)

func TestWindowInOrderUse(t *testing.T) {
	w := newWindow(4)
	var uops []*UOp
	for i := 0; i < 4; i++ {
		u := &UOp{Seq: uint64(i + 1)}
		uops = append(uops, u)
		if v := w.pushTail(u); v != uint64(i) {
			t.Fatalf("pushTail -> %d, want %d", v, i)
		}
	}
	if !w.full() {
		t.Error("window should be full")
	}
	if got := w.headUop(); got != uops[0] {
		t.Error("headUop mismatch")
	}
	w.popHead()
	if w.full() {
		t.Error("window still full after pop")
	}
	if got := w.headUop(); got != uops[1] {
		t.Error("head should advance")
	}
	if v := w.pushTail(&UOp{Seq: 9}); v != 4 {
		t.Errorf("pushTail after pop -> %d, want 4", v)
	}
}

func TestWindowOutOfOrderPlacement(t *testing.T) {
	w := newWindow(4)
	u2 := &UOp{Seq: 2}
	// Place virtual index 2 first (BlackJack out-of-order fetch).
	if !w.canPlace(2) {
		t.Fatal("canPlace(2) = false")
	}
	w.place(2, u2)
	if w.headUop() != nil {
		t.Error("head slot should be empty (gap)")
	}
	if w.canPlace(4) {
		t.Error("canPlace(4) should be false (outside window)")
	}
	u0 := &UOp{Seq: 0}
	w.place(0, u0)
	if w.headUop() != u0 {
		t.Error("head should now be filled")
	}
	w.popHead()
	if !w.canPlace(4) {
		t.Error("window should have slid forward")
	}
}

func TestWindowSquashPath(t *testing.T) {
	w := newWindow(8)
	for i := 0; i < 5; i++ {
		w.pushTail(&UOp{Seq: uint64(i + 1)})
	}
	// Squash entries at virtual indices 3,4.
	w.clearAt(4)
	w.shrinkTail(4)
	w.clearAt(3)
	w.shrinkTail(3)
	if w.tail != 3 || w.occupancy() != 3 {
		t.Errorf("tail=%d occ=%d, want 3,3", w.tail, w.occupancy())
	}
	v := w.pushTail(&UOp{Seq: 9})
	if v != 3 {
		t.Errorf("pushTail after squash -> %d, want 3", v)
	}
}

func TestWindowPlacePanics(t *testing.T) {
	w := newWindow(2)
	w.place(0, &UOp{})
	for _, v := range []uint64{0, 2} { // occupied slot; out of window
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("place(%d) did not panic", v)
				}
			}()
			w.place(v, &UOp{})
		}()
	}
}

// prevStore finds the same stores as a slot-by-slot walk, over random
// placements, pops and squashes in windows narrower and wider than one
// bitmap word, with holes from out-of-order placement and a wrapping ring.
func TestWindowPrevStoreMatchesWalk(t *testing.T) {
	store := isa.Inst{Op: isa.OpSt}
	load := isa.Inst{Op: isa.OpLd}
	for _, size := range []int{5, 64, 100} {
		rng := rand.New(rand.NewSource(int64(size)))
		w := newLSQ(size)
		for step := 0; step < 20_000; step++ {
			switch r := rng.Intn(10); {
			case r < 5 && !w.full():
				// Place at a random free index ahead of the head, leaving holes.
				v := w.head + uint64(rng.Intn(size))
				if w.at(v) == nil {
					in := load
					if rng.Intn(2) == 0 {
						in = store
					}
					w.place(v, &UOp{Inst: in})
				}
			case r < 8 && w.headUop() != nil:
				w.popHead()
			default:
				// Squash everything from a random index to the tail.
				v := w.head + uint64(rng.Intn(size))
				for x := w.tail; x > v; x-- {
					w.clearAt(x - 1)
				}
				w.shrinkTail(v)
			}
			from := w.head + uint64(rng.Intn(size+1))
			got, gotOK := w.prevStore(from)
			var want uint64
			wantOK := false
			for v := from; v > w.head; v-- {
				if u := w.at(v - 1); u != nil && u.Inst.IsStore() {
					want, wantOK = v-1, true
					break
				}
			}
			if got != want || gotOK != wantOK {
				t.Fatalf("size %d step %d: prevStore(%d) = %d,%v; walk finds %d,%v", size, step, from, got, gotOK, want, wantOK)
			}
		}
	}
}

// blockingStore finds the same store as a walk over the uops that applies
// loadReady's rules to each older store in turn (an issued store with the
// address forwards; an unissued one blocks when its address is unknowable
// or matches), over random placements, pops and squashes and random store
// resolution and issue, in windows narrower and wider than one bitmap word
// whose ring wraps. Addresses come from a set of four, so they alias.
func TestWindowStoreBlockMatchesWalk(t *testing.T) {
	store := isa.Inst{Op: isa.OpSt}
	load := isa.Inst{Op: isa.OpLd}
	for _, size := range []int{5, 64, 100} {
		rng := rand.New(rand.NewSource(int64(size)))
		w := newLSQ(size)
		knownAt := map[*UOp]int64{} // resolved stores' base ready cycles
		var found [2]int            // walks ending at an issued, unissued store
		for step := 0; step < 40_000; step++ {
			// resolve gives the unissued store at v an address, then issues
			// it or makes the address knowable from a random cycle on.
			resolve := func(v uint64, u *UOp) {
				u.Addr = 8 * uint64(rng.Intn(4))
				if rng.Intn(3) == 0 {
					u.Issued = true
					w.resolveStore(v, u.Addr, 0)
				} else {
					knownAt[u] = int64(rng.Intn(40))
					w.resolveStore(v, u.Addr, knownAt[u])
				}
			}
			switch r := rng.Intn(12); {
			case r < 5 && !w.full():
				v := w.head + uint64(rng.Intn(size))
				if w.at(v) == nil {
					u := &UOp{Inst: load}
					if rng.Intn(2) == 0 {
						u.Inst = store
					}
					w.place(v, u)
					if u.Inst.IsStore() && rng.Intn(4) != 0 {
						resolve(v, u)
					}
				}
			case r < 7:
				// Resolve or issue a random unissued store.
				v := w.head + uint64(rng.Intn(size))
				if u := w.at(v); u != nil && u.Inst.IsStore() && !u.Issued {
					resolve(v, u)
				}
			case r < 10 && w.headUop() != nil:
				w.popHead()
			default:
				v := w.head + uint64(rng.Intn(size))
				for x := w.tail; x > v; x-- {
					w.clearAt(x - 1)
				}
				w.shrinkTail(v)
			}
			from := w.head + uint64(rng.Intn(size+1))
			addr, cycle := 8*uint64(rng.Intn(4)), int64(rng.Intn(60))
			got, gotOK := w.blockingStore(from, addr, cycle)
			var want uint64
			wantOK := false
			for v := from; v > w.head && !wantOK; v-- {
				u := w.at(v - 1)
				if u == nil || !u.Inst.IsStore() {
					continue
				}
				at, resolved := knownAt[u]
				switch {
				case u.Issued:
					wantOK = u.Addr == addr
				case !resolved || at > cycle:
					wantOK = true
				default:
					wantOK = u.Addr == addr
				}
				if wantOK {
					want = v - 1
					if u.Issued {
						found[0]++
					} else {
						found[1]++
					}
				}
			}
			if got != want || gotOK != wantOK {
				t.Fatalf("size %d step %d: blockingStore(%d, %d, %d) = %d,%v; walk finds %d,%v", size, step, from, addr, cycle, got, gotOK, want, wantOK)
			}
		}
		if found[0] < 500 || found[1] < 500 {
			t.Errorf("size %d: walks found only %d issued and %d unissued stores", size, found[0], found[1])
		}
	}
}

package isa

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// flatMemory is the byte-image data segment the paged Memory replaced: the
// whole segment materialised up front, Init copied in.
type flatMemory []byte

func newFlatMemory(size int, init []uint64) flatMemory {
	f := make(flatMemory, size)
	for i, w := range init {
		binary.LittleEndian.PutUint64(f[8*i:], w)
	}
	return f
}

func (f flatMemory) load(addr uint64) uint64 { return binary.LittleEndian.Uint64(f[addr:]) }
func (f flatMemory) store(addr, v uint64)    { binary.LittleEndian.PutUint64(f[addr:], v) }
func (f flatMemory) clone() flatMemory       { return append(flatMemory(nil), f...) }
func (f flatMemory) equal(t *testing.T, m *Memory, step int, label string) {
	t.Helper()
	if m.Size() != len(f) {
		t.Fatalf("step %d %s: size %d, want %d", step, label, m.Size(), len(f))
	}
	for a := uint64(0); a < uint64(len(f)); a += 8 {
		if got, want := m.Load(a), f.load(a); got != want {
			t.Fatalf("step %d %s: word at %#x = %#x, want %#x", step, label, a, got, want)
		}
	}
}

// TestMemoryMatchesFlatModel drives the paged Memory and the flat byte model
// through one seeded random sequence of loads, stores, clones and resets:
// segments whose Init ends mid-page or covers only part of the segment,
// addresses past Init and on pages never written, and writes after a Clone
// on either side. The two must never differ.
func TestMemoryMatchesFlatModel(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	layouts := []struct{ size, initWords int }{
		{8, 0},
		{8, 1},
		{4096, 512},
		{3 * 4096, 700},         // Init ends mid-page; last pages all zero
		{5*4096 + 8, 5*512 + 1}, // partial last page, Init to the end
		{64 * 1024, 3},
	}
	for _, l := range layouts {
		init := make([]uint64, l.initWords)
		for i := range init {
			init[i] = rng.Uint64()
		}
		initCopy := append([]uint64(nil), init...)

		// Two live (Memory, model) pairs; clones are swapped in and out so
		// writes after a Clone land on either side.
		mems := [2]*Memory{NewMemory(l.size, init), nil}
		flats := [2]flatMemory{newFlatMemory(l.size, init), nil}
		mems[1], flats[1] = mems[0].Clone(), flats[0].clone()
		addr := func() uint64 {
			if rng.Intn(4) == 0 && l.initWords > 0 { // bias toward Init-backed words
				return uint64(8 * rng.Intn(l.initWords))
			}
			return uint64(8 * rng.Intn(l.size/8))
		}
		for step := 0; step < 3000; step++ {
			k := rng.Intn(2)
			switch op := rng.Intn(20); {
			case op < 8:
				a := addr()
				if got, want := mems[k].Load(a), flats[k].load(a); got != want {
					t.Fatalf("size %d step %d: Load(%#x) = %#x, want %#x", l.size, step, a, got, want)
				}
			case op < 17:
				a, v := addr(), rng.Uint64()
				mems[k].Store(a, v)
				flats[k].store(a, v)
			case op < 19:
				mems[1-k], flats[1-k] = mems[k].Clone(), flats[k].clone()
			default:
				mems[k].Reset(l.size, init)
				flats[k] = newFlatMemory(l.size, init)
			}
			if step%500 == 0 {
				flats[0].equal(t, mems[0], step, "side 0")
				flats[1].equal(t, mems[1], step, "side 1")
			}
		}
		flats[0].equal(t, mems[0], -1, "side 0")
		flats[1].equal(t, mems[1], -1, "side 1")

		// CopyFrom over a Memory with pages of its own (the RestoreArch
		// path) yields the source exactly.
		mems[0].CopyFrom(mems[1])
		flats[1].equal(t, mems[0], -1, "copy")

		for i, w := range initCopy {
			if init[i] != w {
				t.Fatalf("size %d: Init word %d written through: %#x, want %#x", l.size, i, init[i], w)
			}
		}
	}
}

// TestMemoryRejectsBadLayout: sizes that are not whole words, and Init
// images larger than the segment, are construction errors.
func TestMemoryRejectsBadLayout(t *testing.T) {
	for _, l := range []struct{ size, initWords int }{{0, 0}, {12, 0}, {8, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMemory(%d, %d words) did not panic", l.size, l.initWords)
				}
			}()
			NewMemory(l.size, make([]uint64, l.initWords))
		}()
	}
}

// CopyShared shares each of prev's pages that holds the same words as the
// source's and copies the rest, so two copies of one segment hold their
// equal pages once (counted by distinct page pointers). Each copy equals
// its source, and a copy rebuilt in place recycles only the pages it owns:
// prev keeps every word it held.
func TestMemoryCopySharedSharesEqualPages(t *testing.T) {
	const pageBytes = pageWords * 8
	init := make([]uint64, 3*pageWords)
	for i := range init {
		init[i] = uint64(i) * 7
	}
	src := NewMemory(8*pageBytes, init)
	for p := uint64(0); p < 6; p++ {
		src.Store(p*pageBytes, p+1)
	}
	prev := &Memory{}
	prev.CopyShared(src, nil)
	want := prev.Clone()
	src.Store(2*pageBytes+8, 99) // page 2 changes
	src.Store(7*pageBytes, 5)    // page 7 is new

	cur := &Memory{}
	cur.CopyShared(src, prev)
	distinct := map[*page]bool{}
	for _, m := range []*Memory{prev, cur} {
		for _, p := range m.pages {
			if p != nil {
				distinct[p] = true
			}
		}
	}
	// prev holds pages 0-5; cur shares 0, 1, 3, 4, 5 and owns 2 and 7.
	if len(distinct) != 8 {
		t.Errorf("%d distinct pages, want 8", len(distinct))
	}
	if !cur.Equal(src) {
		t.Error("a sharing copy differs from its source")
	}

	// Rebuilt in place over its earlier storage, from a source whose every
	// page changed, cur takes its own pages back and no page of prev.
	for p := uint64(0); p < 8; p++ {
		src.Store(p*pageBytes+16, 1000+p)
	}
	cur.CopyShared(src, prev)
	if !cur.Equal(src) || !prev.Equal(want) {
		t.Error("a copy rebuilt in place changed the pages it shared")
	}
	for i, p := range cur.pages {
		if p != nil && p == prev.pages[i] {
			t.Errorf("page %d is shared, but its words differ", i)
		}
	}
	cur.CopyFrom(src)
	if !cur.Equal(src) || !prev.Equal(want) || len(cur.shared) != 0 {
		t.Error("a plain copy over a sharing one changed prev or kept shared pages")
	}
}

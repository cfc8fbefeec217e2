package cache

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// flatSetAssoc is the flat tag array the paged setAssoc replaced, kept as its
// oracle: tags, valid bits and recency stamps in three arrays of sets*ways.
type flatSetAssoc struct {
	sets      int
	ways      int
	lineShift uint
	tags      []uint64
	valid     []bool
	lru       []uint64
	clock     uint64
}

// newSetAssoc, clone and cloneHierarchy build through init and copyFrom /
// CopyFrom, the paths a machine's build and copy use.
func newSetAssoc(sizeBytes, ways, lineBytes int) *setAssoc {
	c := &setAssoc{}
	c.init(sizeBytes, ways, lineBytes)
	return c
}

func (c *setAssoc) clone() *setAssoc {
	n := &setAssoc{}
	n.copyFrom(c)
	return n
}

func cloneHierarchy(h *Hierarchy) *Hierarchy {
	c := &Hierarchy{}
	c.CopyFrom(h)
	return c
}

func newFlatSetAssoc(sizeBytes, ways, lineBytes int) *flatSetAssoc {
	p := newSetAssoc(sizeBytes, ways, lineBytes)
	return &flatSetAssoc{
		sets:      p.sets,
		ways:      p.ways,
		lineShift: p.lineShift,
		tags:      make([]uint64, p.sets*ways),
		valid:     make([]bool, p.sets*ways),
		lru:       make([]uint64, p.sets*ways),
	}
}

func (c *flatSetAssoc) clone() *flatSetAssoc {
	n := *c
	n.tags = slices.Clone(c.tags)
	n.valid = slices.Clone(c.valid)
	n.lru = slices.Clone(c.lru)
	return &n
}

func (c *flatSetAssoc) equal(o *flatSetAssoc) bool {
	return c.clock == o.clock && slices.Equal(c.tags, o.tags) &&
		slices.Equal(c.valid, o.valid) && slices.Equal(c.lru, o.lru)
}

func (c *flatSetAssoc) access(addr uint64) bool {
	line := addr >> c.lineShift
	set, tag := int(line%uint64(c.sets)), line/uint64(c.sets)
	c.clock++
	base := set * c.ways
	victim, oldest := base, c.lru[base]
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == tag {
			c.lru[i] = c.clock
			return true
		}
		if !c.valid[i] {
			victim, oldest = i, 0
		} else if c.lru[i] < oldest {
			victim, oldest = i, c.lru[i]
		}
	}
	c.tags[victim] = tag
	c.valid[victim] = true
	c.lru[victim] = c.clock
	return false
}

// flatHierarchy is Hierarchy over flat tag arrays, one access per cycle (so
// the ports never reject).
type flatHierarchy struct {
	cfg    Config
	l1, l2 *flatSetAssoc
	stats  Stats
}

func newFlatHierarchy(cfg Config) *flatHierarchy {
	return &flatHierarchy{
		cfg: cfg,
		l1:  newFlatSetAssoc(cfg.L1SizeKB*1024, cfg.L1Ways, cfg.LineBytes),
		l2:  newFlatSetAssoc(cfg.L2SizeKB*1024, cfg.L2Ways, cfg.LineBytes),
	}
}

func (h *flatHierarchy) clone() *flatHierarchy {
	return &flatHierarchy{cfg: h.cfg, l1: h.l1.clone(), l2: h.l2.clone(), stats: h.stats}
}

func (h *flatHierarchy) access(addr uint64) int {
	h.stats.Accesses++
	lat := h.cfg.L1Lat
	if h.l1.access(addr) {
		return lat
	}
	h.stats.L1Misses++
	lat += h.cfg.L2Lat
	if h.l2.access(addr) {
		return lat
	}
	h.stats.L2Misses++
	return lat + h.cfg.MemLat
}

// lockstep feeds n random addresses from [0, span) to the paged hierarchy
// and its flat oracle, one per cycle from *cycle, and fails at the first
// access whose latency (L1 hit, L2 hit or miss) differs.
func lockstep(t *testing.T, label string, h *Hierarchy, ref *flatHierarchy, rng *rand.Rand, span uint64, n int, cycle *int64) {
	t.Helper()
	for i := 0; i < n; i++ {
		*cycle++
		addr := rng.Uint64() % span
		got, ok := h.Access(addr, *cycle)
		if !ok {
			t.Fatalf("%s: access %d: port rejected", label, i)
		}
		if want := ref.access(addr); got != want {
			t.Fatalf("%s: access %d to %#x: latency %d, flat oracle %d", label, i, addr, got, want)
		}
		if p := h.Probe(addr); p != h.cfg.L1Lat {
			t.Fatalf("%s: access %d: the line just accessed probes at %d", label, i, p)
		}
	}
	if h.Stats() != ref.stats {
		t.Fatalf("%s: stats %+v, flat oracle %+v", label, h.Stats(), ref.stats)
	}
}

// The paged tag arrays give the flat arrays' hit and miss sequence and
// statistics on random streams over a working set that fits the L1 and one
// that overflows the L2; clones start equal, stay independent once they
// diverge, and keep following the oracle.
func TestPagedTagsMatchFlatOracle(t *testing.T) {
	cfg := DefaultConfig()
	for _, ws := range []struct {
		name string
		span uint64
	}{
		{"32KB", 32 << 10},
		{"8MB", 8 << 20},
	} {
		t.Run(ws.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(ws.span)))
			h, ref := New(cfg), newFlatHierarchy(cfg)
			var cycle int64
			lockstep(t, "warm", h, ref, rng, ws.span, 50_000, &cycle)

			c, cref := cloneHierarchy(h), ref.clone()
			if !h.Equal(c) || !c.Equal(h) {
				t.Fatal("a fresh clone does not equal its original")
			}
			// Diverge: each takes one new line the other never sees, so
			// clocks and statistics stay equal and only the tags differ.
			cc := cycle
			lockstep(t, "original diverge", h, ref, rng, 1<<40, 1, &cycle)
			lockstep(t, "clone diverge", c, cref, rng, 1<<40, 1, &cc)
			if h.Equal(c) || c.Equal(h) {
				t.Fatal("Equal holds after original and clone took different lines")
			}
			for i := 0; i < 3; i++ {
				seed := rng.Int63()
				lockstep(t, "original", h, ref, rand.New(rand.NewSource(seed)), ws.span, 10_000, &cycle)
				lockstep(t, "clone", c, cref, rand.New(rand.NewSource(seed)), ws.span, 10_000, &cc)
			}
			if h.Equal(c) {
				t.Fatal("Equal holds between the diverged clone and its original")
			}
			if want := ref.l1.equal(cref.l1) && ref.l2.equal(cref.l2); want {
				t.Fatal("the flat oracles reconverged; the divergence check proves nothing")
			}
		})
	}
}

// Random streams straight into one array: the paged and flat arrays agree on
// every access, on clones, and on Equal, also when the set count is not a
// multiple of the page size.
func TestPagedSetAssocMatchesFlat(t *testing.T) {
	// reused is copied into and re-initialized again and again, across the
	// geometries too, dirtied in between: a copy into used pages must equal
	// its source, and a used array re-initialized a fresh one.
	reused := &setAssoc{}
	for _, g := range []struct{ size, ways int }{{64 << 10, 4}, {19200, 3}, {1 << 10, 16}} {
		p, f := newSetAssoc(g.size, g.ways, 64), newFlatSetAssoc(g.size, g.ways, 64)
		rng := rand.New(rand.NewSource(int64(g.size + g.ways)))
		for i := 0; i < 20_000; i++ {
			addr := rng.Uint64() % uint64(4*g.size)
			if got, want := p.access(addr), f.access(addr); got != want {
				t.Fatalf("%d/%d-way: access %d to %#x: hit=%v, flat oracle %v", g.size, g.ways, i, addr, got, want)
			}
			if i%5000 == 0 {
				pc, fc := p.clone(), f.clone()
				addr := rng.Uint64()
				if pc.access(addr) != fc.access(addr) || p.equal(pc) != f.equal(fc) || p.equal(pc) {
					t.Fatalf("%d/%d-way: clone diverged differently from the flat oracle", g.size, g.ways)
				}
				reused.copyFrom(p)
				if !reused.equal(p) {
					t.Fatalf("%d/%d-way: a copy into a used array does not equal its source", g.size, g.ways)
				}
				reused.access(rng.Uint64())
				reused.init(g.size, g.ways, 64)
				if !reused.equal(newSetAssoc(g.size, g.ways, 64)) {
					t.Fatalf("%d/%d-way: a used array re-initialized is not empty", g.size, g.ways)
				}
				for k := 0; k < 64; k++ {
					reused.access(rng.Uint64())
				}
			}
		}
		if !p.equal(p.clone()) {
			t.Fatalf("%d/%d-way: clone does not equal its original", g.size, g.ways)
		}
	}
}

// Clones of one shared hierarchy run at once, each against its own flat
// oracle: under the race detector this shows that a clone shares no tag page
// with its original or with another clone.
func TestConcurrentClonesShareNoPages(t *testing.T) {
	cfg := DefaultConfig()
	h, ref := New(cfg), newFlatHierarchy(cfg)
	var cycle int64
	lockstep(t, "warm", h, ref, rand.New(rand.NewSource(1)), 8<<20, 20_000, &cycle)
	snap := cloneHierarchy(h)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, cref, cc := cloneHierarchy(h), ref.clone(), cycle
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 5_000; i++ {
				cc++
				addr := rng.Uint64() % (8 << 20)
				if got, _ := c.Access(addr, cc); got != cref.access(addr) {
					t.Errorf("clone %d: access %d differs from its flat oracle", w, i)
					return
				}
				if i%500 == 0 && !h.Equal(snap) {
					t.Errorf("clone %d: the shared original changed", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

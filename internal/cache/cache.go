// Package cache models the data-cache hierarchy of Table 1: a dual-ported
// 64KB 4-way 2-cycle L1, a unified 2MB 8-way L2, and 350-cycle main memory.
//
// The model is a timing model only: it tracks tags and LRU state to decide
// hit/miss latency, while data values live in the simulator's memory image.
// Outstanding misses are not bandwidth-limited (an unbounded-MSHR
// simplification); port contention on the L1 is modeled per cycle because the
// two L1 ports are exactly the two memory backend ways whose spatial
// diversity the paper measures.
package cache

import (
	"fmt"
	"slices"
)

// Config sizes the hierarchy. The zero value is not useful; start from
// DefaultConfig.
type Config struct {
	LineBytes int

	L1SizeKB int
	L1Ways   int
	L1Lat    int // cycles for an L1 hit
	L1Ports  int // simultaneous accesses per cycle

	L2SizeKB int
	L2Ways   int
	L2Lat    int // additional cycles for an L2 hit

	MemLat int // additional cycles for a memory access
}

// DefaultConfig returns the Table 1 hierarchy.
func DefaultConfig() Config {
	return Config{
		LineBytes: 64,
		L1SizeKB:  64, L1Ways: 4, L1Lat: 2, L1Ports: 2,
		L2SizeKB: 2048, L2Ways: 8, L2Lat: 12,
		MemLat: 350,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("cache: line size %d not a positive power of two", c.LineBytes)
	case c.L1SizeKB <= 0 || c.L2SizeKB <= 0:
		return fmt.Errorf("cache: non-positive cache size")
	case c.L1Ways <= 0 || c.L2Ways <= 0:
		return fmt.Errorf("cache: non-positive associativity")
	case c.L1Lat <= 0 || c.L2Lat < 0 || c.MemLat < 0:
		return fmt.Errorf("cache: bad latency")
	case c.L1Ports <= 0:
		return fmt.Errorf("cache: need at least one L1 port")
	}
	return nil
}

// Stats accumulates access counts.
type Stats struct {
	Accesses  uint64
	L1Misses  uint64
	L2Misses  uint64
	PortStall uint64 // accesses rejected for lack of a free port
}

// Hierarchy is the two-level hierarchy plus memory.
type Hierarchy struct {
	cfg Config
	l1  *setAssoc
	l2  *setAssoc

	portCycle int64 // cycle the port counter refers to
	portsUsed int

	stats Stats
}

// New builds a hierarchy; it panics on an invalid config (configs are
// programmer-supplied constants, not runtime input).
func New(cfg Config) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Hierarchy{
		cfg: cfg,
		l1:  newSetAssoc(cfg.L1SizeKB*1024, cfg.L1Ways, cfg.LineBytes),
		l2:  newSetAssoc(cfg.L2SizeKB*1024, cfg.L2Ways, cfg.LineBytes),
	}
}

// Config returns the configuration the hierarchy was built with.
func (h *Hierarchy) Config() Config { return h.cfg }

// Stats returns a copy of the accumulated statistics.
func (h *Hierarchy) Stats() Stats { return h.stats }

// PortFree reports whether an L1 port is available in the given cycle.
func (h *Hierarchy) PortFree(cycle int64) bool {
	if cycle != h.portCycle {
		return true
	}
	return h.portsUsed < h.cfg.L1Ports
}

// Access performs a load or store access at the given cycle, returning the
// total latency in cycles and whether a port was available. When ok is false
// the access did not happen and the caller must retry in a later cycle.
func (h *Hierarchy) Access(addr uint64, cycle int64) (lat int, ok bool) {
	if cycle != h.portCycle {
		h.portCycle = cycle
		h.portsUsed = 0
	}
	if h.portsUsed >= h.cfg.L1Ports {
		h.stats.PortStall++
		return 0, false
	}
	h.portsUsed++
	h.stats.Accesses++

	lat = h.cfg.L1Lat
	if h.l1.access(addr) {
		return lat, true
	}
	h.stats.L1Misses++
	lat += h.cfg.L2Lat
	if h.l2.access(addr) {
		return lat, true
	}
	h.stats.L2Misses++
	lat += h.cfg.MemLat
	return lat, true
}

// Clone returns an independent deep copy of the hierarchy (tags, LRU state,
// port counters and statistics), so a checkpointed machine resumes with
// byte-identical hit/miss timing.
func (h *Hierarchy) Clone() *Hierarchy {
	return &Hierarchy{
		cfg:       h.cfg,
		l1:        h.l1.clone(),
		l2:        h.l2.clone(),
		portCycle: h.portCycle,
		portsUsed: h.portsUsed,
		stats:     h.stats,
	}
}

// Equal reports whether h and o hold the same configuration, tags, LRU
// state, port counters and statistics, so every later access sees the same
// latency in both.
func (h *Hierarchy) Equal(o *Hierarchy) bool {
	return h.cfg == o.cfg && h.portCycle == o.portCycle && h.portsUsed == o.portsUsed &&
		h.stats == o.stats && h.l1.equal(o.l1) && h.l2.equal(o.l2)
}

// Probe reports the latency an access would see without performing it (no
// LRU update, no port use). Used by tests and diagnostics.
func (h *Hierarchy) Probe(addr uint64) int {
	lat := h.cfg.L1Lat
	if h.l1.probe(addr) {
		return lat
	}
	lat += h.cfg.L2Lat
	if h.l2.probe(addr) {
		return lat
	}
	return lat + h.cfg.MemLat
}

// setAssoc is an LRU set-associative tag array.
type setAssoc struct {
	sets      int
	ways      int
	lineShift uint
	// tags[set*ways+way]; lru[set*ways+way] holds a recency stamp.
	tags  []uint64
	valid []bool
	lru   []uint64
	clock uint64
}

func newSetAssoc(sizeBytes, ways, lineBytes int) *setAssoc {
	lines := sizeBytes / lineBytes
	sets := lines / ways
	if sets < 1 {
		sets = 1
	}
	shift := uint(0)
	for 1<<shift < lineBytes {
		shift++
	}
	return &setAssoc{
		sets:      sets,
		ways:      ways,
		lineShift: shift,
		tags:      make([]uint64, sets*ways),
		valid:     make([]bool, sets*ways),
		lru:       make([]uint64, sets*ways),
	}
}

func (c *setAssoc) clone() *setAssoc {
	n := &setAssoc{
		sets:      c.sets,
		ways:      c.ways,
		lineShift: c.lineShift,
		tags:      make([]uint64, len(c.tags)),
		valid:     make([]bool, len(c.valid)),
		lru:       make([]uint64, len(c.lru)),
		clock:     c.clock,
	}
	copy(n.tags, c.tags)
	copy(n.valid, c.valid)
	copy(n.lru, c.lru)
	return n
}

func (c *setAssoc) equal(o *setAssoc) bool {
	return c.sets == o.sets && c.ways == o.ways && c.lineShift == o.lineShift &&
		c.clock == o.clock && slices.Equal(c.tags, o.tags) &&
		slices.Equal(c.valid, o.valid) && slices.Equal(c.lru, o.lru)
}

func (c *setAssoc) index(addr uint64) (set int, tag uint64) {
	line := addr >> c.lineShift
	return int(line % uint64(c.sets)), line / uint64(c.sets)
}

// access looks up addr, fills on miss, and returns whether it hit.
func (c *setAssoc) access(addr uint64) bool {
	set, tag := c.index(addr)
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

func (c *setAssoc) probe(addr uint64) bool {
	set, tag := c.index(addr)
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == tag {
			return true
		}
	}
	return false
}

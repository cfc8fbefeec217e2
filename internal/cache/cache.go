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
	h := &Hierarchy{}
	h.Init(cfg)
	return h
}

// Init resets h to a fresh, empty hierarchy, keeping its tag pages for
// reuse: New is Init on a zero Hierarchy. It panics on an invalid config.
func (h *Hierarchy) Init(cfg Config) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	l1, l2 := orNew(h.l1), orNew(h.l2)
	l1.init(cfg.L1SizeKB*1024, cfg.L1Ways, cfg.LineBytes)
	l2.init(cfg.L2SizeKB*1024, cfg.L2Ways, cfg.LineBytes)
	*h = Hierarchy{cfg: cfg, l1: l1, l2: l2}
}

// orNew returns c, or a new array when c is nil.
func orNew(c *setAssoc) *setAssoc {
	if c == nil {
		return &setAssoc{}
	}
	return c
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

// CopyFrom makes h an independent deep copy of src (tags, LRU state, port
// counters and statistics), reusing h's tag pages, so a checkpointed machine
// resumes with byte-identical hit/miss timing. src is only read.
func (h *Hierarchy) CopyFrom(src *Hierarchy) { h.CopyShared(src, nil) }

// CopyShared makes h a copy of src, as CopyFrom does, except that h shares
// prev's tag page wherever it holds the same tags and stamps as src's, as
// isa.Memory.CopyShared does for memory pages: h and prev must then never
// be accessed, and prev must stay unchanged for as long as h is in use. A
// nil prev shares nothing. src and prev are only read.
func (h *Hierarchy) CopyShared(src, prev *Hierarchy) {
	var p1, p2 *setAssoc
	if prev != nil {
		p1, p2 = prev.l1, prev.l2
	}
	l1, l2 := orNew(h.l1), orNew(h.l2)
	l1.copyFrom(src.l1, p1)
	l2.copyFrom(src.l2, p2)
	*h = *src
	h.l1, h.l2 = l1, l2
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

// setsPerPage is the number of sets one tag page holds, and pagesPerChunk
// the number of pages allocated at once.
const (
	setsPerPage   = 16
	pagesPerChunk = 8
)

// setAssoc is an LRU set-associative tag array. Its tags and recency stamps
// live in pages of setsPerPage sets, each created on the first fill of one of
// its sets, so building, cloning and comparing an array costs only the sets a
// run touched. A way holds a line when its stamp is non-zero: the clock
// advances before every access, so stamps start at 1.
type setAssoc struct {
	sets      int
	ways      int
	lineShift uint
	// pages[set/setsPerPage] holds the (tag, stamp) pair of way w of a set at
	// 2*((set%setsPerPage)*ways+w); nil until one of its sets is filled.
	pages [][]uint64
	// shared[i] marks pages[i] as another array's page (see copyFrom):
	// never written here, and never taken back as free storage. Empty when
	// no page is shared.
	shared []bool
	spare  []uint64   // unused rest of the last page chunk
	free   [][]uint64 // pages an init or copy dropped, reused before spare
	clock  uint64
}

// init empties c and sets its geometry, keeping its pages for reuse.
func (c *setAssoc) init(sizeBytes, ways, lineBytes int) {
	lines := sizeBytes / lineBytes
	sets := lines / ways
	if sets < 1 {
		sets = 1
	}
	shift := uint(0)
	for 1<<shift < lineBytes {
		shift++
	}
	c.setGeometry(sets, ways, shift)
	c.clock = 0
}

// setGeometry drops every page (kept for reuse while the page size stays)
// and sets the geometry.
func (c *setAssoc) setGeometry(sets, ways int, shift uint) {
	if ways != c.ways {
		c.free, c.spare = nil, nil
	}
	for i, p := range c.pages {
		if p != nil && ways == c.ways && !c.isShared(i) {
			c.free = append(c.free, p)
		}
		c.pages[i] = nil
	}
	c.shared = c.shared[:0]
	c.sets, c.ways, c.lineShift = sets, ways, shift
	n := (sets + setsPerPage - 1) / setsPerPage
	if cap(c.pages) >= n {
		c.pages = c.pages[:n] // every entry is nil
	} else {
		c.pages = make([][]uint64, n)
	}
}

// pageLen is the number of words in one page.
func (c *setAssoc) pageLen() int { return 2 * setsPerPage * c.ways }

// newPage returns page storage with unspecified contents: a dropped page,
// else the next page of the chunk, else the first page of a new chunk.
func (c *setAssoc) newPage() []uint64 {
	if k := len(c.free); k > 0 {
		p := c.free[k-1]
		c.free = c.free[:k-1]
		return p
	}
	n := c.pageLen()
	if len(c.spare) < n {
		c.spare = make([]uint64, pagesPerChunk*n)
	}
	p := c.spare[:n:n]
	c.spare = c.spare[n:]
	return p
}

// copyFrom makes c a copy of src, reusing c's pages; when they do not
// suffice, the missing pages share one fresh backing array. Where prev
// (nil: nowhere) has a page equal to src's at the same index, c shares
// prev's page instead (see Hierarchy.CopyShared). src and prev are only
// read.
func (c *setAssoc) copyFrom(src, prev *setAssoc) {
	c.setGeometry(src.sets, src.ways, src.lineShift)
	c.clock = src.clock
	if prev != nil {
		c.shared = append(c.shared, make([]bool, len(c.pages))...)
	}
	need := 0
	for i, p := range src.pages {
		switch {
		case p == nil:
		case prev != nil && i < len(prev.pages) && prev.pages[i] != nil && slices.Equal(prev.pages[i], p):
			c.pages[i] = prev.pages[i]
			c.shared[i] = true
		default:
			need++
		}
	}
	n := c.pageLen()
	if need > len(c.free)+len(c.spare)/n {
		c.spare = make([]uint64, (need-len(c.free))*n)
	}
	for i, p := range src.pages {
		if p != nil && c.pages[i] == nil {
			c.pages[i] = c.newPage()
			copy(c.pages[i], p)
		}
	}
}

// isShared reports whether page i is another array's.
func (c *setAssoc) isShared(i int) bool { return i < len(c.shared) && c.shared[i] }

// equal compares geometry, clocks and pages. A page exists exactly when one
// of its sets holds a line (fills are never undone), so equal tag state has
// equal pages.
func (c *setAssoc) equal(o *setAssoc) bool {
	return c.sets == o.sets && c.ways == o.ways && c.lineShift == o.lineShift &&
		c.clock == o.clock && slices.EqualFunc(c.pages, o.pages, func(a, b []uint64) bool {
		if a == nil || b == nil {
			return a == nil && b == nil
		}
		return slices.Equal(a, b)
	})
}

func (c *setAssoc) index(addr uint64) (set int, tag uint64) {
	line := addr >> c.lineShift
	return int(line % uint64(c.sets)), line / uint64(c.sets)
}

// set returns the (tag, stamp) pairs of a set's ways, or nil when its page
// does not exist yet.
func (c *setAssoc) set(set int) []uint64 {
	p := c.pages[set/setsPerPage]
	if p == nil {
		return nil
	}
	off := 2 * (set % setsPerPage) * c.ways
	return p[off : off+2*c.ways]
}

// access looks up addr, fills on miss, and returns whether it hit. The victim
// of a fill is the last empty way, else the least recently used one.
func (c *setAssoc) access(addr uint64) bool {
	set, tag := c.index(addr)
	c.clock++
	ways := c.set(set)
	if ways == nil {
		p := c.newPage()
		clear(p)
		c.pages[set/setsPerPage] = p
		ways = c.set(set)
	}
	victim, oldest := 0, ways[1]
	for w := 0; w < len(ways); w += 2 {
		stamp := ways[w+1]
		if stamp != 0 && ways[w] == tag {
			ways[w+1] = c.clock
			return true
		}
		if stamp == 0 {
			victim, oldest = w, 0
		} else if stamp < oldest {
			victim, oldest = w, stamp
		}
	}
	ways[victim] = tag
	ways[victim+1] = c.clock
	return false
}

func (c *setAssoc) probe(addr uint64) bool {
	set, tag := c.index(addr)
	ways := c.set(set)
	for w := 0; w < len(ways); w += 2 {
		if ways[w+1] != 0 && ways[w] == tag {
			return true
		}
	}
	return false
}

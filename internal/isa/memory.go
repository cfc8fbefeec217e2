package isa

import "fmt"

// Memory is a data segment, stored as 64-bit words in fixed 4 KiB pages
// that are created lazily. A page exists only after its first store, which
// copies the page's part of the program's Init image into it. A read of a
// page that was never written comes straight from Init, or is zero past
// Init's end. Init is shared by every Memory built from one program and is
// never written, so a run pays for the pages it stores to, not for the
// whole segment; Clone and CopyFrom copy only the pages that exist.
//
// The emulator, the pipeline, architectural snapshots and pipeline
// checkpoints all hold their data segment as a Memory. A Memory is not safe
// for concurrent mutation; concurrent reads (Load, Clone, CopyFrom from a
// shared snapshot) are safe.
type Memory struct {
	size  int      // bytes, a positive multiple of 8
	init  []uint64 // shared Program.Init; read-only
	pages []*page  // nil until the page's first store

	// Page storage. spare holds pages a Reset or CopyFrom dropped, reused
	// before slab, which holds allocated pages not yet handed out. Slab
	// chunks grow with the number of pages first stores have created, so a
	// run that creates n pages costs O(log n) allocations.
	spare   []*page
	slab    []page
	created int
}

const (
	pageShift = 9 // 512 words = 4 KiB per page
	pageWords = 1 << pageShift
	pageMask  = pageWords - 1

	// maxChunkPages caps one slab allocation (256 KiB).
	maxChunkPages = 64
)

type page [pageWords]uint64

// NewMemory returns a segment of size bytes whose leading words are init.
// size must be a positive multiple of 8 holding every init word (the
// invariants Program.Validate enforces); init is retained, not copied, and
// must not be modified afterwards.
func NewMemory(size int, init []uint64) *Memory {
	m := &Memory{}
	m.Reset(size, init)
	return m
}

// Reset reinitializes m to a fresh segment of size bytes over init, keeping
// its pages for reuse.
func (m *Memory) Reset(size int, init []uint64) {
	if size <= 0 || size%8 != 0 || len(init)*8 > size {
		panic(fmt.Sprintf("isa: invalid memory of %d bytes with %d init words", size, len(init)))
	}
	for i, p := range m.pages {
		if p != nil {
			m.spare = append(m.spare, p)
			m.pages[i] = nil
		}
	}
	n := (size/8 + pageMask) >> pageShift
	if cap(m.pages) >= n {
		m.pages = m.pages[:n]
	} else {
		m.pages = make([]*page, n)
	}
	m.size = size
	m.init = init
}

// Size returns the segment size in bytes.
func (m *Memory) Size() int { return m.size }

// Load returns the word at addr, an 8-byte aligned address inside the
// segment (see ClampAddr).
func (m *Memory) Load(addr uint64) uint64 {
	w := addr >> 3
	if p := m.pages[w>>pageShift]; p != nil {
		return p[w&pageMask]
	}
	if w < uint64(len(m.init)) {
		return m.init[w]
	}
	return 0
}

// Store writes the word at addr, an 8-byte aligned address inside the
// segment (see ClampAddr), creating its page on first use.
func (m *Memory) Store(addr, v uint64) {
	w := addr >> 3
	p := m.pages[w>>pageShift]
	if p == nil {
		p = m.newPage(int(w >> pageShift))
	}
	p[w&pageMask] = v
}

// newPage creates page i from the Init image and installs it.
func (m *Memory) newPage(i int) *page {
	if len(m.spare) == 0 && len(m.slab) == 0 {
		m.slab = make([]page, min(max(m.created, 1), maxChunkPages))
	}
	m.created++
	p := m.takePage()
	lo := i << pageShift
	n := 0
	if lo < len(m.init) {
		n = copy(p[:], m.init[lo:])
	}
	clear(p[n:])
	m.pages[i] = p
	return p
}

// takePage returns page storage with unspecified contents from the spare
// list or the slab; the caller has made sure one of them is non-empty.
func (m *Memory) takePage() *page {
	if n := len(m.spare); n > 0 {
		p := m.spare[n-1]
		m.spare = m.spare[:n-1]
		return p
	}
	p := &m.slab[0]
	m.slab = m.slab[1:]
	return p
}

// Clone returns an independent copy of m. Only existing pages are copied;
// Init stays shared.
func (m *Memory) Clone() *Memory {
	c := &Memory{}
	c.CopyFrom(m)
	return c
}

// CopyFrom makes m an independent copy of src, reusing m's page storage.
// src is only read.
func (m *Memory) CopyFrom(src *Memory) {
	m.Reset(src.size, src.init)
	need := -len(m.spare)
	for _, p := range src.pages {
		if p != nil {
			need++
		}
	}
	if need > len(m.slab) {
		m.slab = make([]page, need)
	}
	for i, p := range src.pages {
		if p != nil {
			q := m.takePage()
			*q = *p
			m.pages[i] = q
		}
	}
}

// Equal reports whether m and o have the same size and hold the same word
// at every address. Which pages exist, and spare page storage, do not
// matter. Both are only read.
func (m *Memory) Equal(o *Memory) bool {
	if m.size != o.size {
		return false
	}
	sameInit := len(m.init) == len(o.init) && (len(m.init) == 0 || &m.init[0] == &o.init[0])
	for i, p := range m.pages {
		q := o.pages[i]
		switch {
		case p != nil && q != nil:
			if *p != *q {
				return false
			}
		case p == nil && q == nil && sameInit:
		default:
			lo := i << pageShift
			for w := lo; w < lo+pageWords; w++ {
				if m.word(p, w) != o.word(q, w) {
					return false
				}
			}
		}
	}
	return true
}

// word returns word w, which lies in page p (nil when the page was never
// written).
func (m *Memory) word(p *page, w int) uint64 {
	if p != nil {
		return p[w&pageMask]
	}
	if w < len(m.init) {
		return m.init[w]
	}
	return 0
}

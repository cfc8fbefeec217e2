package pipeline

import (
	"blackjack/internal/bpred"
	"blackjack/internal/isa"
	"blackjack/internal/queues"
	"blackjack/internal/rename"
)

// Thread identifiers.
const (
	leadThread  = 0 // also the single thread in ModeSingle
	trailThread = 1
)

// fetchItem is one instruction (or safe-shuffle NOP) sitting in a thread's
// fetch buffer, between fetch and rename/dispatch.
type fetchItem struct {
	pc         int
	raw        isa.Inst
	way        int   // frontend way
	fetchCycle int64 // cycle the item left fetch (for tracing)
	predTaken  bool
	predLookup bpred.Lookup

	// Trailing-thread pairing information (from the stream or the DTQ).
	pairValid    bool
	leadFrontWay int
	leadBackWay  int
	leadClass    isa.UnitClass
	loadSeq      uint64
	storeSeq     uint64
	halt         bool

	// BlackJack trailing extras.
	leadPSrc1, leadPSrc2, leadPDest rename.PhysReg
	virtAL, virtLSQ                 uint64
	packetID                        uint64
	isNOP                           bool
	nopClass                        isa.UnitClass
}

// thread is one SMT context.
type thread struct {
	id   int
	rob  *window
	lsq  *window
	rmap *rename.Map // architectural rename map (unused by the BJ trailing thread)

	fetchQ       *queues.Ring[fetchItem]
	fetchPC      int
	fetchStopped bool // fetched a halt or ran off the program (squash restores)
	halted       bool // committed a halt (or reached the instruction cap)

	// Dispatch-side ordinals, rolled back on squash.
	nextSeq       uint64
	nextLoadSeq   uint64
	nextStoreSeq  uint64
	nextBranchSeq uint64

	// Counters.
	fetched     uint64 // real instructions fetched (NOPs excluded)
	fetchedNOPs uint64
	committed   uint64
}

func newThread(id int, cfg *Config) *thread {
	return &thread{
		id:     id,
		rob:    newWindow(cfg.ActiveList),
		lsq:    newLSQ(cfg.LSQ),
		rmap:   rename.NewMap(isa.NumArchRegs),
		fetchQ: queues.NewRing[fetchItem](cfg.FetchQueue),
	}
}

// drained reports whether the thread has no in-flight work.
func (t *thread) drained() bool {
	return t.rob.occupancy() == 0 && t.fetchQ.Empty()
}

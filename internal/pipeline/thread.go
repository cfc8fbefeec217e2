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

// init makes t a fresh context with the given id, reusing its storage.
func (t *thread) init(id int, cfg *Config) {
	rob, lsq, rmap, fetchQ := orNew(t.rob), orNew(t.lsq), orNew(t.rmap), orNew(t.fetchQ)
	rob.init(cfg.ActiveList, false)
	lsq.init(cfg.LSQ, true)
	rmap.Init(isa.NumArchRegs)
	fetchQ.Init(cfg.FetchQueue)
	*t = thread{id: id, rob: rob, lsq: lsq, rmap: rmap, fetchQ: fetchQ}
}

// copyFrom makes t a deep copy of src, its window slots mapped through the
// shared uop translation cu, reusing t's storage. fetchItem is all-value,
// so a ring copy of the fetch buffer is a deep copy.
func (t *thread) copyFrom(src *thread, cu func(*UOp) *UOp) {
	rob, lsq, rmap, fetchQ := orNew(t.rob), orNew(t.lsq), orNew(t.rmap), orNew(t.fetchQ)
	rob.copyFrom(src.rob, cu)
	lsq.copyFrom(src.lsq, cu)
	rmap.CopyFrom(src.rmap)
	fetchQ.CopyFrom(src.fetchQ)
	*t = *src
	t.rob, t.lsq, t.rmap, t.fetchQ = rob, lsq, rmap, fetchQ
}

// drained reports whether the thread has no in-flight work.
func (t *thread) drained() bool {
	return t.rob.occupancy() == 0 && t.fetchQ.Empty()
}

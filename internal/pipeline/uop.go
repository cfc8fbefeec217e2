package pipeline

import (
	"blackjack/internal/bpred"
	"blackjack/internal/isa"
	"blackjack/internal/rename"
)

// UOp is an instruction in flight. One UOp exists per fetched instruction
// copy (leading and trailing copies are distinct UOps) plus one per
// safe-shuffle NOP. Its fields are ordered by size, largest first, so the
// record packs without padding: a checkpoint holds one per live uop.
type UOp struct {
	// Seq is the per-thread allocation order: fetch order for the leading /
	// single / SRT-trailing threads (program order on the correct path),
	// dispatch order for the BlackJack trailing thread. Used for age
	// comparisons and squash.
	Seq uint64
	// GSeq is the global dispatch order across threads; the issue queue's
	// oldest-first select uses it.
	GSeq   uint64
	Thread int
	PC     int

	FrontWay int
	BackWay  int // way index within Class; -1 until issued

	// Pipeline status (the flags are below).
	IQSlot    int // payload RAM slot while in the issue queue
	DoneCycle int64

	// Branch state (the predictor token and flags are below).
	Target    int
	BranchSeq uint64

	// Memory state.
	Addr     uint64
	StoreVal uint64
	LoadSeq  uint64
	StoreSeq uint64

	// Result value (written to PDest).
	Result uint64

	// Program-order ordinals (active list / LSQ virtual indices).
	VirtAL  uint64
	VirtLSQ uint64

	// Redundant-pair information (trailing thread only): the leading copy's
	// resource usage, for coverage accounting (its class, physical
	// registers and PairValid are below).
	LeadFrontWay int
	LeadBackWay  int

	// BlackJack packet bookkeeping (the flags are below).
	PacketID uint64

	// Wakeup state (see wakeup.go). WaitN counts source operands still
	// awaiting a producer (a source used twice counts twice); ReadyCycle is
	// the cycle both operands are available once WaitN reaches zero; InCal
	// (below) tracks membership in the machine's wakeup calendar at
	// ReadyCycle.
	WaitN      int
	ReadyCycle int64

	// Raw is the instruction as fetched from the I-cache (or carried through
	// the DTQ); Inst is the effective decoded form, which a frontend-way or
	// payload-RAM hard fault may have corrupted.
	Raw  isa.Inst
	Inst isa.Inst

	PredLookup bpred.Lookup // predictor token (leading conditional branches)

	PSrc1, PSrc2 rename.PhysReg // None when unused
	PDest, POld  rename.PhysReg // None when no destination
	// Leading physical registers (BlackJack double rename inputs).
	LeadPSrc1, LeadPSrc2, LeadPDest rename.PhysReg

	Class     isa.UnitClass
	LeadClass isa.UnitClass

	InIQ     bool
	Issued   bool
	Squashed bool
	// InEvents tracks membership in the machine's completion calendar; the
	// uop free list relies on it to know when a squashed uop's last reference
	// is gone (issued uops stay in the calendar until their completion
	// cycle).
	InEvents bool

	PredTaken bool
	Taken     bool

	PairValid bool
	// Issue-time diversity outcome (trailing, set at issue).
	FeDiverse bool
	BeDiverse bool

	IsNOP bool
	Halt  bool

	InCal bool
}

// done reports whether execution has completed by the given cycle.
func (u *UOp) done(cycle int64) bool {
	return u.Issued && u.DoneCycle <= cycle
}

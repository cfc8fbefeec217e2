package core

import (
	"blackjack/internal/detect"
	"blackjack/internal/isa"
	"blackjack/internal/rename"
)

// DoubleRename is the trailing thread's first rename table (Section 4.3.1).
// Because the trailing thread is fetched in the leading thread's issue order,
// logical register names cannot connect consumers to producers (issue order
// overlaps multiple live ranges of one logical register); instead the table
// is indexed by *leading physical register* — the trailing thread renames the
// renamed leading instructions. The table therefore has one row per leading
// physical register ("our rename tables have more rows").
type DoubleRename struct {
	table rename.Map
}

// NewDoubleRename builds the table with one row per physical register.
func NewDoubleRename(physRegs int) *DoubleRename {
	d := &DoubleRename{}
	d.Init(physRegs)
	return d
}

// Init empties the table and sizes it to physRegs rows, reusing its storage.
func (d *DoubleRename) Init(physRegs int) { d.table.Init(physRegs) }

// Seed installs the initial mapping leadP -> trailP (the pre-execution
// architectural state of each logical register as seen by both threads).
func (d *DoubleRename) Seed(leadP, trailP rename.PhysReg) {
	d.table.Set(int(leadP), trailP)
}

// Lookup translates a leading physical source register into the trailing
// physical register holding the redundant copy of that value. ok is false
// when no producer has been renamed — under correct operation that cannot
// happen, because safe-shuffle preserves the leading issue order in which
// producers precede consumers.
func (d *DoubleRename) Lookup(leadP rename.PhysReg) (rename.PhysReg, bool) {
	p := d.table.Get(int(leadP))
	return p, p != rename.None
}

// Bind records that the trailing copy of the instruction producing leadP
// writes trailP.
func (d *DoubleRename) Bind(leadP, trailP rename.PhysReg) {
	d.table.Set(int(leadP), trailP)
}

// CopyFrom makes d an independent deep copy of src, reusing d's storage.
func (d *DoubleRename) CopyFrom(src *DoubleRename) { d.table.CopyFrom(&src.table) }

// Equal reports whether d and o hold the same mappings (nil-safe).
func (d *DoubleRename) Equal(o *DoubleRename) bool {
	if d == nil || o == nil {
		return d == o
	}
	return d.table.Equal(&o.table)
}

// OrderChecker implements BlackJack's commit-time validation of the
// information borrowed from the leading thread (Section 4.4):
//
//   - the dependence check replays renaming with a second table, indexed by
//     logical register and updated in *program order* at trailing commit, and
//     compares the looked-up physical sources against the ones the trailing
//     instruction actually used in execution;
//   - the second table also identifies the physical register to free (the
//     previous program-order mapping of the destination), because the
//     out-of-program-order first rename cannot;
//   - the program-counter check verifies that committed PCs follow
//     sequential/branch-target order, catching dropped, added or reordered
//     instructions.
type OrderChecker struct {
	second rename.Map

	havePrev   bool
	prevPC     int
	prevTaken  bool
	prevTarget int

	depChecks uint64
	pcChecks  uint64
}

// NewOrderChecker builds the checker; the second rename table has one row per
// logical register.
func NewOrderChecker() *OrderChecker {
	c := &OrderChecker{}
	c.Init()
	return c
}

// Init resets c to a fresh checker, reusing its table's storage.
func (c *OrderChecker) Init() {
	c.second.Init(isa.NumArchRegs)
	*c = OrderChecker{second: c.second}
}

// Seed installs the initial program-order mapping of a logical register.
func (c *OrderChecker) Seed(logical isa.Reg, trailP rename.PhysReg) {
	c.second.Set(int(logical), trailP)
}

// Stats returns the number of dependence and PC checks performed.
func (c *OrderChecker) Stats() (dep, pc uint64) { return c.depChecks, c.pcChecks }

// Mapping returns the current program-order mapping of a logical register —
// after the trailing thread has fully committed, this is its committed
// architectural state (verification harnesses compare it against the golden
// model).
func (c *OrderChecker) Mapping(logical isa.Reg) rename.PhysReg {
	return c.second.Get(int(logical))
}

// CopyFrom makes c an independent deep copy of src, reusing c's storage.
func (c *OrderChecker) CopyFrom(src *OrderChecker) {
	second := c.second
	second.CopyFrom(&src.second)
	*c = *src
	c.second = second
}

// Equal reports whether c and o are in the same checking state (nil-safe).
func (c *OrderChecker) Equal(o *OrderChecker) bool {
	if c == nil || o == nil {
		return c == o
	}
	return c.havePrev == o.havePrev && c.prevPC == o.prevPC &&
		c.prevTaken == o.prevTaken && c.prevTarget == o.prevTarget &&
		c.depChecks == o.depChecks && c.pcChecks == o.pcChecks &&
		c.second.Equal(&o.second)
}

// CommitInfo describes one trailing instruction at commit.
type CommitInfo struct {
	PC      int
	RawInst isa.Inst
	// PSrc1, PSrc2 are the trailing physical sources the instruction
	// actually read in execution (None when the operand is unused).
	PSrc1, PSrc2 rename.PhysReg
	// PDest is the trailing physical destination (None when none).
	PDest rename.PhysReg
	// Taken/Target are the branch outcome the trailing thread itself
	// computed in execution (meaningful when RawInst is a branch).
	Taken  bool
	Target int
}

// Commit checks one trailing instruction in program order. It returns the
// physical register to free (None when none) and whether all checks passed;
// failures are reported to the sink.
func (c *OrderChecker) Commit(sink *detect.Sink, cycle int64, info CommitInfo) (free rename.PhysReg, ok bool) {
	ok = true

	// Dependence check: program-order rename must agree with the physical
	// sources used in execution.
	if info.RawInst.ReadsRs1() {
		c.depChecks++
		if want := c.second.Get(int(info.RawInst.Rs1)); want != info.PSrc1 {
			sink.Reportf(cycle, detect.CheckDependence, info.PC,
				"source %s: program-order rename %d, executed with %d", info.RawInst.Rs1, want, info.PSrc1)
			ok = false
		}
	}
	if info.RawInst.ReadsRs2() {
		c.depChecks++
		if want := c.second.Get(int(info.RawInst.Rs2)); want != info.PSrc2 {
			sink.Reportf(cycle, detect.CheckDependence, info.PC,
				"source %s: program-order rename %d, executed with %d", info.RawInst.Rs2, want, info.PSrc2)
			ok = false
		}
	}

	// Program-counter order check.
	c.pcChecks++
	if c.havePrev {
		want := c.prevPC + 1
		if c.prevTaken {
			want = c.prevTarget
		}
		if info.PC != want {
			sink.Reportf(cycle, detect.CheckPCOrder, info.PC,
				"committed pc %d, expected %d (prev pc %d taken=%v)", info.PC, want, c.prevPC, c.prevTaken)
			ok = false
		}
	}
	c.havePrev = true
	c.prevPC = info.PC
	c.prevTaken = info.RawInst.IsBranch() && info.Taken
	c.prevTarget = info.Target

	// Free the previous program-order mapping of the destination.
	free = rename.None
	if info.RawInst.WritesRd() {
		free = c.second.Set(int(info.RawInst.Rd), info.PDest)
	}
	return free, ok
}

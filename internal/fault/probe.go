package fault

import (
	"blackjack/internal/isa"
	"blackjack/internal/rename"
)

// Probe is a non-mutating observer of a site list: it implements the
// pipeline's Injector surface but never changes a value, instead recording —
// per site — the cycle of the first use that a real Injector would have
// corrupted, and the running count of eligible uses (the transient FireAt
// counter).
//
// Campaign warmups run the fault-free golden simulation once with a Probe
// attached. Because the probe never corrupts, sites cannot interact: every
// site observes the pristine trajectory, so FireCycle(i) is exactly the first
// activation cycle of a solo run injecting site i, and the first activation
// of any subset is lower-bounded by the minimum FireCycle over its members
// (until the first corruption, the multi-site machine is byte-identical to
// the pristine one). Any checkpoint taken strictly before that minimum is
// therefore a valid fork point for the subset, and UsesSnapshot taken there
// seeds the fork's Injector counters exactly.
type Probe struct {
	Sites        []Site
	SplitPayload bool

	// Now supplies the current cycle (the machine's clock).
	Now func() int64

	idx  siteIndex
	uses []uint64
	fire []int64
}

// index returns the site index, building it and the per-site counters on
// first use. Like the injector's, it visits only the sites that could match
// a use — typically none or one — in site-list order, so the probe counts
// exactly the uses an injector on the same list would.
func (pr *Probe) index() *siteIndex {
	if !pr.idx.built {
		pr.build()
	}
	return &pr.idx
}

func (pr *Probe) build() {
	pr.idx.build(pr.Sites, pr.SplitPayload)
	pr.uses = make([]uint64, len(pr.Sites))
	pr.fire = make([]int64, len(pr.Sites))
	for i := range pr.fire {
		pr.fire[i] = -1
	}
}

// Watched implements pipeline.Injector (see Injector.Watched).
func (pr *Probe) Watched() []Resource { return pr.index().watched }

// fires mirrors Injector.fires exactly — both delegate the firing decision
// to Site.firesAt, so the probe cannot drift from the injector — without any
// corruption side effect.
func (pr *Probe) fires(i int32) bool {
	s := &pr.Sites[i]
	if !s.counted() {
		return true
	}
	pr.uses[i]++
	return s.firesAt(pr.uses[i])
}

// record stamps site i's first value-changing use.
func (pr *Probe) record(i int32) {
	if pr.fire[i] < 0 && pr.Now != nil {
		pr.fire[i] = pr.Now()
	}
}

// FireCycle returns the cycle site i first changed a value on the pristine
// trajectory, or -1 if it never would (for transients: its one shot missed or
// never came; for triggered sites: the trigger never matched a value that
// would change).
func (pr *Probe) FireCycle(i int) int64 {
	pr.index()
	return pr.fire[i]
}

// UsesSnapshot returns a copy of the per-site eligible-use counters, for
// seeding a forked Injector via SeedUses.
func (pr *Probe) UsesSnapshot() []uint64 {
	pr.index()
	out := make([]uint64, len(pr.uses))
	copy(out, pr.uses)
	return out
}

// CorruptDecode implements pipeline.Injector without mutating.
func (pr *Probe) CorruptDecode(way int, in isa.Inst) isa.Inst {
	for _, i := range pr.index().hooks[HookDecode].at(0, way) {
		s := &pr.Sites[i]
		if s.triggered(uint64(in.Imm)) && pr.fires(i) {
			if s.corruptInst(in) != in {
				pr.record(i)
			}
		}
	}
	return in
}

// CorruptPayload implements pipeline.Injector without mutating.
func (pr *Probe) CorruptPayload(slot, thread int, in isa.Inst) isa.Inst {
	for _, i := range pr.index().hooks[HookPayload].at(payloadThread(pr.SplitPayload, thread), slot) {
		if pr.fires(i) && pr.Sites[i].corruptInst(in) != in {
			pr.record(i)
		}
	}
	return in
}

// CorruptResult implements pipeline.Injector without mutating.
func (pr *Probe) CorruptResult(class isa.UnitClass, way int, in isa.Inst, v uint64) uint64 {
	for _, i := range pr.index().hooks[HookResult].at(int(class), way) {
		s := &pr.Sites[i]
		if s.triggered(v) && pr.fires(i) {
			// A stuck-at matching the present value changes nothing; only a
			// value-changing use counts as the first activation.
			if s.corruptValue(v) != v {
				pr.record(i)
			}
		}
	}
	return v
}

// CorruptAddr implements pipeline.Injector without mutating.
func (pr *Probe) CorruptAddr(class isa.UnitClass, way int, addr uint64) uint64 {
	for _, i := range pr.index().hooks[HookAddr].at(int(class), way) {
		s := &pr.Sites[i]
		if s.triggered(addr) && pr.fires(i) {
			if s.corruptAddr(addr) != addr {
				pr.record(i)
			}
		}
	}
	return addr
}

// CorruptBranch implements pipeline.Injector without mutating.
func (pr *Probe) CorruptBranch(class isa.UnitClass, way int, taken bool) bool {
	for _, i := range pr.index().hooks[HookBranch].at(int(class), way) {
		if pr.fires(i) {
			pr.record(i)
		}
	}
	return taken
}

// CorruptBranchTarget implements pipeline.Injector without mutating.
func (pr *Probe) CorruptBranchTarget(class isa.UnitClass, way int, target int) int {
	for _, i := range pr.index().hooks[HookBranchTarget].at(int(class), way) {
		s := &pr.Sites[i]
		if s.triggered(uint64(target)) && pr.fires(i) {
			if int(s.corruptValue(uint64(target))) != target {
				pr.record(i)
			}
		}
	}
	return target
}

// CorruptRegRead implements pipeline.Injector without mutating.
func (pr *Probe) CorruptRegRead(p rename.PhysReg, v uint64) uint64 {
	for _, i := range pr.index().hooks[HookRegRead].at(0, int(p)) {
		s := &pr.Sites[i]
		if s.triggered(v) && pr.fires(i) {
			if s.corruptValue(v) != v {
				pr.record(i)
			}
		}
	}
	return v
}

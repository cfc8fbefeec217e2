package fault_test

import (
	"fmt"
	"slices"
	"testing"

	"blackjack/internal/fault"
	"blackjack/internal/isa"
	"blackjack/internal/pipeline"
	"blackjack/internal/rename"
	"blackjack/internal/sim"
)

// counters is everything a hook call may change besides its return value.
type counters struct {
	uses        []uint64
	activations uint64
	fire        []int64
}

func (c counters) equal(o counters) bool {
	return slices.Equal(c.uses, o.uses) && c.activations == o.activations && slices.Equal(c.fire, o.fire)
}

// subject is one implementation of the hooks under test, with a reader for
// its counters.
type subject struct {
	name  string
	hooks pipeline.Injector
	read  func() counters
}

func subjects(sites []fault.Site, split bool) []subject {
	now := func() int64 { return 7 }
	inj := &fault.Injector{Sites: sites, SplitPayload: split, Now: now}
	pr := &fault.Probe{Sites: sites, SplitPayload: split, Now: now}
	return []subject{
		{"injector", inj, func() counters {
			first, _ := inj.FirstActivation()
			return counters{uses: fault.InjectorUses(inj), activations: inj.Activations(), fire: []int64{first}}
		}},
		{"probe", pr, func() counters {
			fire := make([]int64, len(sites))
			for i := range fire {
				fire[i] = pr.FireCycle(i)
			}
			return counters{uses: pr.UsesSnapshot(), fire: fire}
		}},
	}
}

// watchedBy returns the membership test for a Watched list: a payload read
// by thread t is watched when its slot is listed for t or for AnyThread.
func watchedBy(list []fault.Resource) func(fault.Resource) bool {
	set := map[fault.Resource]bool{}
	for _, r := range list {
		set[r] = true
	}
	return func(r fault.Resource) bool {
		if set[r] {
			return true
		}
		r.Thread = fault.AnyThread
		return r.Hook == fault.HookPayload && set[r]
	}
}

// unwatchedIdentity calls every hook at every resource of cfg that watched
// rejects, with every value in vals, and reports the first call that
// changed its input or any counter.
func unwatchedIdentity(cfg pipeline.Config, s subject, watched func(fault.Resource) bool, vals []uint64) error {
	var err error
	call := func(r fault.Resource, same func() bool) {
		if err != nil || watched(r) {
			return
		}
		before := s.read()
		if !same() {
			err = fmt.Errorf("%s: hook at unwatched %+v changed its input", s.name, r)
		} else if after := s.read(); !after.equal(before) {
			err = fmt.Errorf("%s: hook at unwatched %+v changed counters %+v -> %+v", s.name, r, before, after)
		}
	}
	h := s.hooks
	for _, v := range vals {
		in := isa.Inst{Op: isa.Op(1), Rd: 3, Rs1: 1, Rs2: 2, Imm: int64(v)}
		for w := 0; w < cfg.FetchWidth; w++ {
			call(fault.Resource{Hook: fault.HookDecode, Way: w}, func() bool { return h.CorruptDecode(w, in) == in })
		}
		for t := 0; t < 2; t++ {
			for slot := 0; slot < cfg.IssueQueue; slot++ {
				call(fault.Resource{Hook: fault.HookPayload, Slot: slot, Thread: t},
					func() bool { return h.CorruptPayload(slot, t, in) == in })
			}
		}
		for c := isa.UnitClass(0); c < isa.NumUnitClasses; c++ {
			for w := 0; w < cfg.Units[c]; w++ {
				be := func(hk fault.Hook) fault.Resource { return fault.Resource{Hook: hk, Unit: c, Way: w} }
				call(be(fault.HookResult), func() bool { return h.CorruptResult(c, w, in, v) == v })
				call(be(fault.HookAddr), func() bool { return h.CorruptAddr(c, w, v) == v })
				call(be(fault.HookBranch), func() bool { return h.CorruptBranch(c, w, v&1 == 1) == (v&1 == 1) })
				call(be(fault.HookBranchTarget), func() bool { return h.CorruptBranchTarget(c, w, int(v)) == int(v) })
			}
		}
		for p := 0; p < cfg.PhysRegs; p++ {
			call(fault.Resource{Hook: fault.HookRegRead, Reg: rename.PhysReg(p)},
				func() bool { return h.CorruptRegRead(rename.PhysReg(p), v) == v })
		}
	}
	return err
}

// On every resource the site index leaves unwatched, every hook of both
// implementations is the identity and counts nothing — what lets the
// machine skip those calls. The inputs include each site's trigger value,
// so a site the index wrongly left out fires: dropping any one resource
// from the watched list must fail the check.
func TestUnwatchedHooksAreIdentity(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	lists := map[string][]fault.Site{
		"latent":       sim.LatentSites(cfg),
		"transient":    sim.TransientSites(cfg, 200),
		"intermittent": sim.IntermittentSites(cfg, 64, 16, 75),
		"control-flow": sim.ControlFlowSites(cfg),
	}
	for name, sites := range lists {
		vals := []uint64{0, 1, ^uint64(0)}
		for _, s := range sites {
			vals = append(vals, s.TriggerValue)
		}
		for _, split := range []bool{false, true} {
			for i, s := range subjects(sites, split) {
				label := fmt.Sprintf("%s split=%v %s", name, split, s.name)
				list := s.hooks.Watched()
				if len(list) == 0 {
					t.Fatalf("%s: nothing watched", label)
				}
				if err := unwatchedIdentity(cfg, s, watchedBy(list), vals); err != nil {
					t.Errorf("%s: %v", label, err)
				}
				// Mutation: an index that omits one resource lets a hook
				// that matters through unwatched.
				for k, r := range list {
					fresh := subjects(sites, split)[i]
					omitted := slices.Delete(slices.Clone(list), k, k+1)
					if unwatchedIdentity(cfg, fresh, watchedBy(omitted), vals) == nil {
						t.Errorf("%s: omitting %+v from the watched list went unnoticed", label, r)
					}
				}
			}
		}
	}
}

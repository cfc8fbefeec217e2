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
	pr := fault.NewProbe(sites, split)
	pr.Now = now
	return []subject{
		{"injector", inj, func() counters {
			first, _ := inj.FirstActivation()
			return counters{uses: inj.AppendUses(nil), activations: inj.Activations(), fire: []int64{first}}
		}},
		{"probe", pr, func() counters {
			fire := make([]int64, len(sites))
			for i := range fire {
				fire[i] = pr.FireCycle(i)
			}
			return counters{uses: pr.AppendUses(nil), fire: fire}
		}},
	}
}

// benchmarkLists returns the four site lists the benchmark's campaigns run.
func benchmarkLists(cfg pipeline.Config) map[string][]fault.Site {
	return map[string][]fault.Site{
		"latent":       sim.LatentSites(cfg),
		"transient":    sim.TransientSites(cfg, 200),
		"intermittent": sim.IntermittentSites(cfg, 64, 16, 75),
		"control-flow": sim.ControlFlowSites(cfg),
	}
}

// resources lists every hook coordinate of cfg's machine, each payload slot
// once per reading thread.
func resources(cfg pipeline.Config) []fault.Resource {
	var rs []fault.Resource
	for w := 0; w < cfg.FetchWidth; w++ {
		rs = append(rs, fault.Resource{Hook: fault.HookDecode, Way: w})
	}
	for t := 0; t < 2; t++ {
		for slot := 0; slot < cfg.IssueQueue; slot++ {
			rs = append(rs, fault.Resource{Hook: fault.HookPayload, Slot: slot, Thread: t})
		}
	}
	for c := isa.UnitClass(0); c < isa.NumUnitClasses; c++ {
		for w := 0; w < cfg.Units[c]; w++ {
			for _, h := range []fault.Hook{fault.HookResult, fault.HookAddr, fault.HookBranch, fault.HookBranchTarget} {
				rs = append(rs, fault.Resource{Hook: h, Unit: c, Way: w})
			}
		}
	}
	for p := 0; p < cfg.PhysRegs; p++ {
		rs = append(rs, fault.Resource{Hook: fault.HookRegRead, Reg: rename.PhysReg(p)})
	}
	return rs
}

// hookAt calls r's hook at r's resource with input v (as the immediate of
// an instruction input) and reports whether the call changed its input. A
// payload read under a shared RAM (AnyThread) is made by thread 0.
func hookAt(h pipeline.Injector, r fault.Resource, v uint64) bool {
	in := isa.Inst{Op: isa.Op(1), Rd: 3, Rs1: 1, Rs2: 2, Imm: int64(v)}
	switch r.Hook {
	case fault.HookDecode:
		return h.CorruptDecode(r.Way, in) != in
	case fault.HookPayload:
		return h.CorruptPayload(r.Slot, max(r.Thread, 0), in) != in
	case fault.HookResult:
		return h.CorruptResult(r.Unit, r.Way, in, v) != v
	case fault.HookAddr:
		return h.CorruptAddr(r.Unit, r.Way, v) != v
	case fault.HookBranch:
		return h.CorruptBranch(r.Unit, r.Way, v&1 == 1) != (v&1 == 1)
	case fault.HookBranchTarget:
		return h.CorruptBranchTarget(r.Unit, r.Way, int(v)) != int(v)
	case fault.HookRegRead:
		return h.CorruptRegRead(r.Reg, v) != v
	}
	panic(fmt.Sprintf("no hook %d", r.Hook))
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
	all := resources(cfg)
	for _, v := range vals {
		for _, r := range all {
			if watched(r) {
				continue
			}
			before := s.read()
			if hookAt(s.hooks, r, v) {
				return fmt.Errorf("%s: hook at unwatched %+v changed its input", s.name, r)
			}
			if after := s.read(); !after.equal(before) {
				return fmt.Errorf("%s: hook at unwatched %+v changed counters %+v -> %+v", s.name, r, before, after)
			}
		}
	}
	return nil
}

// On every resource the site index leaves unwatched, every hook of both
// implementations is the identity and counts nothing — what lets the
// machine skip those calls. The inputs include each site's trigger value,
// so a site the index wrongly left out fires: dropping any one resource
// from the watched list must fail the check.
func TestUnwatchedHooksAreIdentity(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	for name, sites := range benchmarkLists(cfg) {
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

// A probe fires where the corrupting injector over the same site does, but
// never corrupts. At every watched resource of the four benchmark lists,
// driven with the site's trigger value until the injector fires, the probe
// returns every input unchanged, both count the same uses, and the probe's
// fire cycle is the injector's first activation.
func TestWatchedProbeNeverCorrupts(t *testing.T) {
	for name, sites := range benchmarkLists(pipeline.DefaultConfig()) {
		for i, site := range sites {
			for _, split := range []bool{false, true} {
				label := fmt.Sprintf("%s site %d (%v) split=%v", name, i, site, split)
				now := int64(0)
				clock := func() int64 { return now }
				inj := &fault.Injector{Sites: []fault.Site{site}, SplitPayload: split, Now: clock}
				pr := fault.NewProbe(inj.Sites, split)
				pr.Now = clock
				watched := pr.Watched()
				for _, r := range watched {
					for now = 1; inj.Activations() == 0 && now <= 20_000; now++ {
						if hookAt(pr, r, site.TriggerValue) {
							t.Fatalf("%s: the probe changed its input at %+v, cycle %d", label, r, now)
						}
						hookAt(inj, r, site.TriggerValue)
					}
				}
				if len(watched) == 0 {
					continue
				}
				if first, ok := inj.FirstActivation(); !ok {
					t.Errorf("%s: the injector never changed its input", label)
				} else if fc := pr.FireCycle(0); fc != first {
					t.Errorf("%s: probe fire cycle %d, injector first activation %d", label, fc, first)
				}
				if p, j := pr.AppendUses(nil), inj.AppendUses(nil); !slices.Equal(p, j) {
					t.Errorf("%s: probe counted uses %v, injector %v", label, p, j)
				}
			}
		}
	}
}

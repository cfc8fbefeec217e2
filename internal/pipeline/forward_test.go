package pipeline

import (
	"fmt"
	"strings"
	"testing"

	"blackjack/internal/fault"
	"blackjack/internal/isa"
	"blackjack/internal/prog"
	"blackjack/internal/rename"
)

// walkLoadReady is the store-to-load oracle: the disambiguation loadReady
// did before the LSQ kept store addresses, walking the older stores' uops
// and computing each unissued one's address from the register file.
func walkLoadReady(m *Machine, u *UOp) bool {
	t := m.threads[u.Thread]
	addr := walkAddr(m, u)
	for v, ok := t.lsq.prevStore(u.VirtLSQ); ok; v, ok = t.lsq.prevStore(v) {
		s := t.lsq.at(v)
		if s.Issued {
			if s.Addr == addr {
				return true // forwarding source with data in hand
			}
			continue
		}
		if s.PSrc1 != rename.None && !m.rf.Ready(s.PSrc1, m.cycle) {
			return false // address unknowable yet
		}
		if walkAddr(m, s) == addr {
			return false // must forward from this store; wait for its issue
		}
	}
	return true
}

// walkAddr computes a memory uop's fault-free address from its base
// register.
func walkAddr(m *Machine, u *UOp) uint64 {
	var v1 uint64
	if u.PSrc1 != rename.None {
		v1 = m.rf.Value(u.PSrc1)
	}
	return m.clamp(isa.Eval(u.Inst, v1, 0).Addr)
}

// walkForwarder is the oracle for the store a load at addr reads: the
// youngest older issued store with that address, as loadValue's walk
// finds it (nil: none).
func walkForwarder(m *Machine, u *UOp, addr uint64) *UOp {
	t := m.threads[u.Thread]
	for v, ok := t.lsq.prevStore(u.VirtLSQ); ok; v, ok = t.lsq.prevStore(v) {
		if s := t.lsq.at(v); s.Issued && s.Addr == addr {
			return s
		}
	}
	return nil
}

// After every cycle, every operand-ready cache-side load gets the verdict
// from loadReady that the two uop walks give it: whether it may issue and,
// if so, the address it was judged at and the store it forwards from. The
// programs alias stores and loads heavily (memory-stress loops and
// adversarial programs over 1–2 KB of data), in every mode, fault-free and
// with a memory way corrupting effective addresses, whose stores then
// forward from or block at addresses the early address did not predict.
func TestLoadVerdictMatchesWalk(t *testing.T) {
	type program struct {
		name string
		p    *isa.Program
	}
	var progs []program
	for seed := uint64(1); seed <= 6; seed++ {
		if seed <= 2 {
			p, err := prog.StressProgram(seed, prog.StressMem)
			if err != nil {
				t.Fatal(err)
			}
			progs = append(progs, program{fmt.Sprintf("stress-mem-%d", seed), p})
		}
		p, err := prog.AdversarialProgram(seed)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, program{fmt.Sprintf("adversarial-%d", seed), p})
	}
	faults := []struct {
		name string
		site *fault.Site
	}{
		{"fault-free", nil},
		{"addr-way1", &fault.Site{Class: fault.BackendWay, Unit: isa.UnitMem, Way: 1, CorruptAddr: true, BitMask: 8}},
	}
	const n = 4000
	// Verdicts checked, and those blocking the load and forwarding to it,
	// per program family.
	type tally struct{ checked, blocked, forwarded int }
	tallies := map[string]*tally{"stress-mem": {}, "adversarial": {}}
	for _, mode := range []Mode{ModeSingle, ModeSRT, ModeBlackJackNS, ModeBlackJack} {
		for _, pr := range progs {
			for _, f := range faults {
				t.Run(fmt.Sprintf("%v/%s/%s", mode, pr.name, f.name), func(t *testing.T) {
					var opts []Option
					if f.site != nil {
						opts = append(opts, WithInjector(&fault.Injector{Sites: []fault.Site{*f.site}}))
					}
					m, err := New(DefaultConfig(), mode, pr.p, opts...)
					if err != nil {
						t.Fatal(err)
					}
					c := tallies[pr.name[:strings.LastIndexByte(pr.name, '-')]]
					m.RunWithCheckpoints(n, 1, func(m *Machine) {
						for _, u := range m.iq {
							if u == nil || !u.Inst.IsLoad() || !m.accessesCache(u) || u.WaitN > 0 || u.ReadyCycle > m.cycle {
								continue
							}
							ready, fwd := m.loadReady(u)
							if want := walkLoadReady(m, u); ready != want {
								t.Fatalf("cycle %d: load at PC %d ready %v, walk says %v", m.cycle, u.PC, ready, want)
							}
							c.checked++
							if !ready {
								c.blocked++
								continue
							}
							if addr := walkAddr(m, u); !fwd.ok || fwd.addr != addr {
								t.Fatalf("cycle %d: load at PC %d judged at %d (ok %v), its address is %d", m.cycle, u.PC, fwd.addr, fwd.ok, addr)
							}
							if want := walkForwarder(m, u, fwd.addr); fwd.src != want {
								t.Fatalf("cycle %d: load at PC %d forwards from %p, walk finds %p", m.cycle, u.PC, fwd.src, want)
							}
							if fwd.src != nil {
								c.forwarded++
							}
						}
					})
				})
			}
		}
	}
	for name, c := range tallies {
		t.Logf("%s: %d verdicts checked, %d blocked, %d forwarded", name, c.checked, c.blocked, c.forwarded)
		if c.blocked < c.checked/100 || c.forwarded < c.checked/1000 {
			t.Errorf("%s: too few verdicts block or forward to check the walk", name)
		}
	}
}

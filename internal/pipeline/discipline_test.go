package pipeline

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"blackjack/internal/prog"
)

// queuedTrailing returns the trailing uops waiting in the issue queue.
func queuedTrailing(m *Machine) []*UOp {
	var q []*UOp
	for _, u := range m.iq {
		if u != nil && u.InIQ && u.Thread == trailThread {
			q = append(q, u)
		}
	}
	return q
}

// issuedPackets returns the distinct PacketIDs among the uops of queued that
// have issued since queued was taken. A queued uop is never recycled in the
// Tick that issues it (its completion is at least a cycle later), so the
// pointers stay valid across one Tick.
func issuedPackets(queued []*UOp) map[uint64]bool {
	ids := map[uint64]bool{}
	for _, u := range queued {
		if u.Issued {
			ids[u.PacketID] = true
		}
	}
	return ids
}

// At most one trailing packet issues per cycle (the gang rule in
// issueStage): the PacketIDs of the trailing uops that issue in one Tick,
// found by diffing the Issued flags of the queued trailing uops across it,
// are never more than one.
func TestOneTrailingPacketPerIssueCycle(t *testing.T) {
	m, err := New(DefaultConfig(), ModeBlackJack, prog.MustBenchmark("sixtrack"))
	if err != nil {
		t.Fatal(err)
	}
	var (
		queued                 []*UOp
		waiting                map[uint64]bool
		issueCycles, contested int
	)
	st := m.RunWithCheckpoints(4000, 1, func(live *Machine) {
		ids := issuedPackets(queued)
		if len(ids) > 1 {
			t.Fatalf("cycle %d: trailing packets %v issued together", live.Cycle(), ids)
		}
		if len(ids) == 1 {
			issueCycles++
			if len(waiting) > 1 {
				contested++
			}
		}
		queued = queuedTrailing(live)
		waiting = map[uint64]bool{}
		for _, u := range queued {
			waiting[u.PacketID] = true
		}
	})
	if st.Deadlocked {
		t.Fatal("deadlocked")
	}
	// The check must have had something to reject: cycles in which a
	// packet issued while another packet was also queued. (With the
	// gangActive guard removed from issueStage, this run issues two packets
	// together at cycle 747.)
	if issueCycles < 500 || contested < 100 {
		t.Fatalf("only %d trailing issue cycles, %d with more than one packet queued", issueCycles, contested)
	}
	if len(issuedPackets([]*UOp{{Issued: true, PacketID: 1}, {Issued: true, PacketID: 2}})) != 2 {
		t.Fatal("issuedPackets misses a second packet issuing in the same cycle")
	}
}

// Every committed trailing pair must be frontend-diverse, checked directly
// on the machine's stats across several benchmarks (the chart-level version
// of the property tests).
func TestTrailingDiversityInvariants(t *testing.T) {
	for _, bench := range []string{"gcc", "swim"} {
		p := prog.MustBenchmark(bench)
		_, st := run(t, DefaultConfig(), ModeBlackJack, p, 3000)
		if st.FeDiversePairs != st.Pairs {
			t.Errorf("%s: %d of %d pairs frontend-diverse", bench, st.FeDiversePairs, st.Pairs)
		}
	}
}

// The DTQ dispatch gate: the machine must never wedge even when the DTQ is
// barely larger than the issue queue (the regime where DTQ-blocked leading
// instructions could clog the IQ).
func TestDTQGateUnderMinimalDTQ(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DTQ = cfg.IssueQueue + 4
	p := prog.MustBenchmark("gcc")
	m, st := run(t, cfg, ModeBlackJack, p, 2000)
	if !m.Sink().Empty() {
		t.Fatalf("detections: %v", m.Sink().Events())
	}
	g := golden(t, p, st.Committed[0])
	if st.StoreSignature != g.StoreSignature() {
		t.Error("output diverged under minimal DTQ")
	}
}

// NOPs executed must equal NOPs shuffled in (every shuffle NOP flows through
// the pipeline, none are dropped or duplicated).
func TestShuffleNOPConservation(t *testing.T) {
	p := prog.MustBenchmark("wupwise")
	_, st := run(t, DefaultConfig(), ModeBlackJack, p, 4000)
	if st.NOPsExecuted == 0 {
		t.Fatal("no NOPs executed")
	}
	// NOPsExecuted counts dispatches; ShuffleNOPs counts insertions minus
	// replacements. Fetched NOPs can exceed executed only by what is still
	// in flight at the end of the run (bounded by the window).
	if diff := int64(st.ShuffleNOPs) - int64(st.NOPsExecuted); diff < 0 || diff > 64 {
		t.Errorf("NOP conservation: shuffled %d vs executed %d", st.ShuffleNOPs, st.NOPsExecuted)
	}
}

// referenceReadySlots is the select-order oracle: the payload slots of the
// queued uops whose operands are available by this cycle, found from each
// uop's own wakeup state, in ascending GSeq.
func referenceReadySlots(m *Machine) []int {
	var ready []*UOp
	for _, u := range m.iq {
		if u != nil && u.WaitN == 0 && u.ReadyCycle <= m.cycle {
			ready = append(ready, u)
		}
	}
	sort.Slice(ready, func(i, j int) bool { return ready[i].GSeq < ready[j].GSeq })
	slots := make([]int, len(ready))
	for i, u := range ready {
		slots[i] = u.IQSlot
	}
	return slots
}

// Select visits exactly the ready queued uops, oldest first, in every cycle:
// the machine is stepped through Tick's stages with the candidate list
// checked between wakeup and issue, and must end where a plain Run does. An
// issue queue of 96 spreads the ready bits over two mask words.
func TestSelectVisitsReadyUopsOldestFirst(t *testing.T) {
	const n = 6000
	p := prog.MustBenchmark("gcc")
	for _, iq := range []int{32, 96} {
		for _, mode := range []Mode{ModeSRT, ModeBlackJack} {
			t.Run(fmt.Sprintf("iq%d/%v", iq, mode), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.IssueQueue = iq
				m, err := New(cfg, mode, p)
				if err != nil {
					t.Fatal(err)
				}
				var multi, highSlot int
				m.cap = n
				for !m.runDone() {
					if m.cycle > 1_000_000 {
						t.Fatal("stepped run did not finish")
					}
					m.cycle++
					m.resolveCompletions()
					m.commitStage()
					m.capCheck()
					m.shuffleStage()
					m.drainWakeups()
					got, want := m.readySlots(), referenceReadySlots(m)
					if !slices.Equal(got, want) {
						t.Fatalf("cycle %d: select visits slots %v, want %v", m.cycle, got, want)
					}
					if len(want) > 1 {
						multi++
					}
					if len(want) > 0 && slices.Max(want) >= 64 {
						highSlot++
					}
					m.issueStage()
					m.dispatchStage()
					m.fetchStage()
					m.stats.Cycles = m.cycle
					if c := m.totalCommitted(); c != m.lastCommitTotal {
						m.lastCommitTotal, m.lastProgressCycle = c, m.cycle
					}
				}
				m.finalizeStats()

				twin, err := New(cfg, mode, p)
				if err != nil {
					t.Fatal(err)
				}
				if st := twin.Run(n); !reflect.DeepEqual(st, &m.stats) || !m.Matches(twin.Snapshot()) {
					t.Fatalf("the stepped run ended elsewhere than Run:\n%+v\n%+v", m.stats, *st)
				}
				if multi < 1000 {
					t.Fatalf("only %d cycles with more than one candidate", multi)
				}
				if iq > 64 && highSlot == 0 {
					t.Fatal("no candidate in the second mask word")
				}
			})
		}
	}
}

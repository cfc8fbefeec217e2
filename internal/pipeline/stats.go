package pipeline

import (
	"fmt"

	"blackjack/internal/cache"
	"blackjack/internal/detect"
	"blackjack/internal/isa"
	"blackjack/internal/obs"
)

// Stats holds everything a run measures. The experiment harnesses derive the
// paper's figures from these fields.
type Stats struct {
	Cycles int64

	// Per-thread counters (index 0 = leading/single, 1 = trailing).
	Committed [2]uint64
	Fetched   [2]uint64
	Issued    [2]uint64

	Squashed        uint64
	Branches        uint64
	Mispredicts     uint64
	NOPsExecuted    uint64
	TrailingPackets uint64 // shuffled packets fetched by the trailing thread

	// Issue-cycle classification (Figures 5 and 6).
	IssueCycles        uint64 // cycles in which at least one uop issued
	SingleContextIssue uint64 // ...all from one context
	LTInterference     uint64 // ...diversity lost with leading co-issue
	TTInterference     uint64 // ...diversity lost without leading co-issue

	// Coverage accounting over committed leading/trailing pairs (Figure 4).
	Pairs          uint64
	FeDiversePairs uint64
	BeDiversePairs uint64
	// Per-unit-class backend diversity breakdown: which classes lose
	// diversity (narrow 2-way classes fare worst under SRT).
	PairsByClass     [6]uint64
	BeDiverseByClass [6]uint64
	CoverageSum      float64 // to be divided by Pairs with the area model applied
	BackendCoverage  float64 // derived in finalizeStats

	// Shuffle statistics (Section 6.2).
	ShuffleInPackets  uint64
	ShuffleOutPackets uint64
	ShuffleSplits     uint64
	ShuffleNOPs       uint64
	MergedPackets     uint64 // merging-shuffle extension: packet pairs combined

	// Output.
	ReleasedStores uint64
	StoreSignature uint64

	Cache cache.Stats

	// Detections recorded by the redundancy checkers.
	Detections uint64
	FirstEvent *detect.Event

	// Deadlocked is set when the run hit the cycle backstop without
	// completing — always a bug (or an injected fault wedging the pipeline,
	// which counts as detected misbehaviour for campaigns that check it).
	Deadlocked bool

	// Interrupted is set when the run stopped early because its
	// WithRunContext budget expired (wall-clock timeout or shutdown) — the
	// stats describe a partial run, not a completed one.
	Interrupted bool

	// StoppedOnDetect is set when the run stopped at its first detection
	// event (WithStopOnDetect, sampled campaigns): the outcome is Detected
	// by construction, but cycle counts and output accounting cover only
	// the simulated window. Deliberately not exported by Export — it is a
	// sampled-mode execution-path note, not a figure input.
	StoppedOnDetect bool
}

// IPC returns committed leading-thread instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed[0]) / float64(s.Cycles)
}

// Coverage returns the paper's hard-error instruction coverage metric: mean
// area-weighted spatial diversity over all instruction pairs.
func (s *Stats) Coverage() float64 {
	if s.Pairs == 0 {
		return 0
	}
	return s.CoverageSum / float64(s.Pairs)
}

// FrontendDiversity returns the fraction of pairs with diverse frontend ways.
func (s *Stats) FrontendDiversity() float64 {
	if s.Pairs == 0 {
		return 0
	}
	return float64(s.FeDiversePairs) / float64(s.Pairs)
}

// BackendDiversity returns the fraction of pairs with diverse backend ways
// (Figure 4b).
func (s *Stats) BackendDiversity() float64 {
	if s.Pairs == 0 {
		return 0
	}
	return float64(s.BeDiversePairs) / float64(s.Pairs)
}

// ClassDiversity returns the backend diversity of pairs executing on the
// given unit class, and the number of such pairs.
func (s *Stats) ClassDiversity(class int) (frac float64, pairs uint64) {
	pairs = s.PairsByClass[class]
	if pairs == 0 {
		return 0, 0
	}
	return float64(s.BeDiverseByClass[class]) / float64(pairs), pairs
}

// SingleContextFrac returns the fraction of issue cycles in which all issued
// instructions came from one context (Figure 6).
func (s *Stats) SingleContextFrac() float64 {
	if s.IssueCycles == 0 {
		return 0
	}
	return float64(s.SingleContextIssue) / float64(s.IssueCycles)
}

// LTInterferenceFrac returns the fraction of issue cycles losing coverage to
// leading-trailing interference (Figure 5).
func (s *Stats) LTInterferenceFrac() float64 {
	if s.IssueCycles == 0 {
		return 0
	}
	return float64(s.LTInterference) / float64(s.IssueCycles)
}

// TTInterferenceFrac returns the fraction of issue cycles losing coverage to
// trailing-trailing interference (Figure 5).
func (s *Stats) TTInterferenceFrac() float64 {
	if s.IssueCycles == 0 {
		return 0
	}
	return float64(s.TTInterference) / float64(s.IssueCycles)
}

// Export publishes every Stats field into the registry: raw fields as
// counters and derived metrics as gauges. Counters accumulate, so exporting
// several runs into one registry sums them (batch-harness semantics); on a
// fresh registry a single run's counter values equal the Stats fields
// exactly. Counter names are stable — EXPERIMENTS.md maps each paper figure
// to the keys it derives from.
func (s *Stats) Export(r *obs.Registry) {
	set := func(name string, v uint64) { r.Counter(name).Add(v) }
	set("pipeline.cycles", uint64(s.Cycles))
	set("pipeline.committed.lead", s.Committed[0])
	set("pipeline.committed.trail", s.Committed[1])
	set("pipeline.fetched.lead", s.Fetched[0])
	set("pipeline.fetched.trail", s.Fetched[1])
	set("pipeline.issued.lead", s.Issued[0])
	set("pipeline.issued.trail", s.Issued[1])
	set("pipeline.squashed", s.Squashed)
	set("pipeline.branches", s.Branches)
	set("pipeline.mispredicts", s.Mispredicts)
	set("pipeline.nops_executed", s.NOPsExecuted)
	set("pipeline.trailing_packets", s.TrailingPackets)
	set("pipeline.issue_cycles", s.IssueCycles)
	set("pipeline.single_context_issue", s.SingleContextIssue)
	set("pipeline.lt_interference", s.LTInterference)
	set("pipeline.tt_interference", s.TTInterference)
	set("pipeline.pairs", s.Pairs)
	set("pipeline.fe_diverse_pairs", s.FeDiversePairs)
	set("pipeline.be_diverse_pairs", s.BeDiversePairs)
	for cl := isa.UnitClass(0); cl < isa.NumUnitClasses; cl++ {
		set(fmt.Sprintf("pipeline.pairs_by_class.%v", cl), s.PairsByClass[cl])
		set(fmt.Sprintf("pipeline.be_diverse_by_class.%v", cl), s.BeDiverseByClass[cl])
	}
	set("pipeline.shuffle.in_packets", s.ShuffleInPackets)
	set("pipeline.shuffle.out_packets", s.ShuffleOutPackets)
	set("pipeline.shuffle.splits", s.ShuffleSplits)
	set("pipeline.shuffle.nops", s.ShuffleNOPs)
	set("pipeline.merged_packets", s.MergedPackets)
	set("pipeline.released_stores", s.ReleasedStores)
	set("pipeline.store_signature", s.StoreSignature)
	set("pipeline.detections", s.Detections)
	deadlocked := uint64(0)
	if s.Deadlocked {
		deadlocked = 1
	}
	set("pipeline.deadlocked", deadlocked)
	interrupted := uint64(0)
	if s.Interrupted {
		interrupted = 1
	}
	set("pipeline.interrupted", interrupted)
	set("cache.accesses", s.Cache.Accesses)
	set("cache.l1_misses", s.Cache.L1Misses)
	set("cache.l2_misses", s.Cache.L2Misses)
	set("cache.port_stalls", s.Cache.PortStall)

	r.Gauge("pipeline.coverage_sum").Add(s.CoverageSum)
	r.Gauge("pipeline.backend_coverage").Add(s.BackendCoverage)
	r.Gauge("pipeline.ipc").Add(s.IPC())
	r.Gauge("pipeline.coverage").Add(s.Coverage())
	r.Gauge("pipeline.frontend_diversity").Add(s.FrontendDiversity())
	r.Gauge("pipeline.backend_diversity").Add(s.BackendDiversity())
	r.Gauge("pipeline.single_context_frac").Add(s.SingleContextFrac())
	r.Gauge("pipeline.lt_interference_frac").Add(s.LTInterferenceFrac())
	r.Gauge("pipeline.tt_interference_frac").Add(s.TTInterferenceFrac())
}

func (m *Machine) finalizeStats() {
	s := &m.stats
	for i, t := range m.threads {
		// Committed stays in whole-program terms: the functional prefix of an
		// arch-seeded machine counts as committed by both contexts.
		s.Committed[i] = t.committed + m.archBase
		s.Fetched[i] = t.fetched
	}
	s.Cache = m.dcache.Stats()
	s.StoreSignature = m.storeSig
	s.Detections = m.sink.Total()
	if first, ok := m.sink.First(); ok {
		// A copy made only here: taking &first would move first to the heap
		// on every call, detection or not.
		s.FirstEvent = new(detect.Event)
		*s.FirstEvent = first
	}
	if m.shuffler != nil {
		s.ShuffleInPackets, s.ShuffleOutPackets, s.ShuffleSplits, s.ShuffleNOPs = m.shuffler.Stats()
	}
	s.BackendCoverage = s.BackendDiversity()
}

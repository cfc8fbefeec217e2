package sim

import (
	"testing"

	"blackjack/internal/obs"
	"blackjack/internal/pipeline"
)

// TestRunMetricsMatchStats is the registry's ground-truth contract: a single
// run exported into a fresh registry must reproduce pipeline.Stats exactly.
func TestRunMetricsMatchStats(t *testing.T) {
	cfg := Default(pipeline.ModeBlackJack, 5000)
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	res, err := Run(cfg, "gcc")
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	checks := map[string]uint64{
		"pipeline.cycles":           uint64(st.Cycles),
		"pipeline.committed.lead":   st.Committed[0],
		"pipeline.committed.trail":  st.Committed[1],
		"pipeline.fetched.lead":     st.Fetched[0],
		"pipeline.issued.lead":      st.Issued[0],
		"pipeline.issued.trail":     st.Issued[1],
		"pipeline.branches":         st.Branches,
		"pipeline.mispredicts":      st.Mispredicts,
		"pipeline.squashed":         st.Squashed,
		"pipeline.pairs":            st.Pairs,
		"pipeline.fe_diverse_pairs": st.FeDiversePairs,
		"pipeline.be_diverse_pairs": st.BeDiversePairs,
		"pipeline.issue_cycles":     st.IssueCycles,
		"pipeline.lt_interference":  st.LTInterference,
		"pipeline.tt_interference":  st.TTInterference,
		"pipeline.released_stores":  st.ReleasedStores,
		"pipeline.detections":       st.Detections,
		"cache.accesses":            st.Cache.Accesses,
		"cache.l1_misses":           st.Cache.L1Misses,
	}
	for name, want := range checks {
		if got := reg.CounterValue(name); got != want {
			t.Errorf("%s = %d, want %d (Stats field)", name, got, want)
		}
	}
	if got := reg.GaugeValue("pipeline.ipc"); got != st.IPC() {
		t.Errorf("pipeline.ipc = %v, want %v", got, st.IPC())
	}
	if got := reg.GaugeValue("pipeline.coverage"); got != st.Coverage() {
		t.Errorf("pipeline.coverage = %v, want %v", got, st.Coverage())
	}
	h := reg.HistogramByName("pipeline.iq.occupancy")
	if h == nil || h.Count() != uint64(st.Cycles) {
		t.Errorf("IQ occupancy samples = %v, want one per cycle (%d)", h, st.Cycles)
	}
}

package experiments

import (
	"math"

	"blackjack/internal/calib"
	"blackjack/internal/obs"
	"blackjack/internal/pipeline"
	"blackjack/internal/sim"
)

// CalibrationBenchmark is the representative benchmark whose live-metrics
// run feeds the registry-derived (queue occupancy) calibration claims.
const CalibrationBenchmark = "gcc"

// Measurements flattens the suite's figures into the scalar map the
// calibration spec evaluates: per-figure suite averages, per-benchmark band
// extremes, and the margins that encode the paper's shape-ordering claims
// as one-sided numeric assertions.
func (s *Suite) Measurements() calib.Measurements {
	m := calib.Measurements{}
	bs := s.complete()
	if len(bs) == 0 {
		return m
	}

	// Figure 4a/4b: coverage averages and per-benchmark extremes, plus the
	// exact frontend-diversity split (SRT identically 0, BlackJack
	// identically 1 — the structural heart of safe-shuffle).
	var srtCov, bjCov, srtBE, bjBE float64
	bjCovMin, srtFEMax, bjFEMin := math.Inf(1), math.Inf(-1), math.Inf(1)
	for _, b := range bs {
		srt, bj := s.get(b, pipeline.ModeSRT).Stats, s.get(b, pipeline.ModeBlackJack).Stats
		srtCov += srt.Coverage()
		bjCov += bj.Coverage()
		srtBE += srt.BackendDiversity()
		bjBE += bj.BackendDiversity()
		bjCovMin = math.Min(bjCovMin, bj.Coverage())
		srtFEMax = math.Max(srtFEMax, srt.FrontendDiversity())
		bjFEMin = math.Min(bjFEMin, bj.FrontendDiversity())
	}
	n := float64(len(bs))
	m["fig4a.srt.coverage.avg"] = srtCov / n
	m["fig4a.bj.coverage.avg"] = bjCov / n
	m["fig4a.bj.coverage.min"] = bjCovMin
	m["fig4a.srt.fe_diversity.max"] = srtFEMax
	m["fig4a.bj.fe_diversity.min"] = bjFEMin
	m["fig4b.srt.coverage.avg"] = srtBE / n
	m["fig4b.bj.coverage.avg"] = bjBE / n

	// Figures 5 and 6: interference and burstiness averages.
	h := s.Headline()
	m["fig5.tt.avg"] = h.AvgTTInterf
	m["fig5.lt.avg"] = h.AvgLTInterf
	m["fig5.lt_minus_tt"] = h.AvgLTInterf - h.AvgTTInterf
	m["fig6.single_ctx.avg"] = h.AvgSingleCtx

	// Figure 7 / Ext-B: slowdowns, the decomposition, and the strict
	// per-benchmark ordering single > SRT > BJ-NS > BJ reduced to its
	// weakest link (the minimum pairwise margin over all benchmarks).
	m["fig7.srt.slowdown"] = h.SRTSlowdown
	m["fig7.bj.slowdown"] = h.BJSlowdown
	m["fig7.bj_over_srt"] = h.BJOverSRT
	m["extb.shuffle.cost"] = h.ShuffleSlowdown
	m["extb.fetch.cost"] = 1 - s.mean(func(b string) float64 {
		return s.get(b, pipeline.ModeBlackJackNS).NormalizedPerf(s.get(b, pipeline.ModeSRT))
	})
	margin := math.Inf(1)
	for _, b := range bs {
		single := s.get(b, pipeline.ModeSingle)
		srt := s.get(b, pipeline.ModeSRT).NormalizedPerf(single)
		ns := s.get(b, pipeline.ModeBlackJackNS).NormalizedPerf(single)
		bj := s.get(b, pipeline.ModeBlackJack).NormalizedPerf(single)
		margin = math.Min(margin, math.Min(1-srt, math.Min(srt-ns, ns-bj)))
	}
	m["fig7.ordering.margin"] = margin

	return m
}

// Calibrate runs the figure suite plus one metrics-attached representative
// run (the occupancy histograms only exist on live registries) and
// evaluates the paper calibration spec against the combined measurements.
// The report is deterministic: the suite is deterministic at any worker
// count and the representative run is a single serial machine.
func Calibrate(opts Options) (*calib.Report, error) {
	opts.fill()
	s, err := RunSuite(opts)
	if err != nil {
		return nil, err
	}
	m := s.Measurements()

	reg := obs.NewRegistry()
	cfg := opts.RunConfig(pipeline.ModeBlackJack, opts.Machine)
	cfg.Metrics = reg
	if _, err := sim.Run(cfg, CalibrationBenchmark); err != nil {
		return nil, err
	}
	calib.FromRegistry(m, reg, calib.RepPrefix)

	return calib.PaperSpec().Evaluate(m), nil
}

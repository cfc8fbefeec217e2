// Package calib turns the paper-vs-measured comparison into executable
// assertions. Every claim of the paper's evaluation that EXPERIMENTS.md
// checks in prose — coverage averages, slowdown decompositions, interference
// fractions, issue burstiness, queue occupancy — is encoded as a typed
// Claim: a measurement key, the paper's reported value, and a tolerance
// band with an inner PASS interval and an outer DRIFT interval. Evaluating
// a Spec against a Measurements map produces a Report with a per-claim
// PASS/DRIFT/FAIL verdict and deterministic text/JSON renderings, so a PR
// that silently shifts a figure fails CI instead of waiting for a human to
// reread the prose.
//
// Performance is not gated here: bjbench measures it against the bounds in
// BENCHMARK.json, and the campaign fast paths are gated on exact simulated
// cycles by internal/sim's TestCampaignWorkFloors.
package calib

import (
	"fmt"
	"math"
)

// Verdict classifies one evaluated claim. The order is meaningful: verdicts
// only worsen as the observed value moves away from the expected one, so
// Pass < Drift < Fail supports monotonicity reasoning (and tests).
type Verdict uint8

// Claim verdicts.
const (
	// Pass: the observation sits inside the claim's inner tolerance band.
	Pass Verdict = iota
	// Drift: outside the inner band but inside the outer band — worth a
	// warning, not a failure.
	Drift
	// Fail: outside the outer band, or not measured at all.
	Fail
)

var verdictNames = [...]string{Pass: "PASS", Drift: "DRIFT", Fail: "FAIL"}

// String names the verdict.
func (v Verdict) String() string {
	if int(v) < len(verdictNames) {
		return verdictNames[v]
	}
	return fmt.Sprintf("verdict(%d)", uint8(v))
}

// Band is one claim's tolerance specification: an inner PASS interval
// inside an outer DRIFT interval. Constructors normalize the intervals so
// PASS ⊆ DRIFT always holds; one-sided bands use ±Inf bounds.
type Band struct {
	PassLo, PassHi   float64
	DriftLo, DriftHi float64
}

// normalize enforces the PASS ⊆ DRIFT containment (a drift interval can
// never be narrower than the pass interval it surrounds).
func (b Band) normalize() Band {
	b.DriftLo = math.Min(b.DriftLo, b.PassLo)
	b.DriftHi = math.Max(b.DriftHi, b.PassHi)
	return b
}

// AbsBand builds a band symmetric about center with absolute halfwidths:
// PASS is center ± pass, DRIFT is center ± drift.
func AbsBand(center, pass, drift float64) Band {
	return Band{
		PassLo: center - pass, PassHi: center + pass,
		DriftLo: center - drift, DriftHi: center + drift,
	}.normalize()
}

// RelBand builds a band symmetric about center with halfwidths relative to
// |center|: PASS is center ± |center|·passFrac.
func RelBand(center, passFrac, driftFrac float64) Band {
	m := math.Abs(center)
	return AbsBand(center, m*passFrac, m*driftFrac)
}

// RangeBand builds a band from explicit interval bounds.
func RangeBand(passLo, passHi, driftLo, driftHi float64) Band {
	return Band{PassLo: passLo, PassHi: passHi, DriftLo: driftLo, DriftHi: driftHi}.normalize()
}

// AtLeast builds a one-sided lower band: PASS requires ≥ pass, DRIFT
// tolerates down to drift.
func AtLeast(pass, drift float64) Band {
	return Band{
		PassLo: pass, PassHi: math.Inf(1),
		DriftLo: drift, DriftHi: math.Inf(1),
	}.normalize()
}

// AtMost builds a one-sided upper band: PASS requires ≤ pass, DRIFT
// tolerates up to drift.
func AtMost(pass, drift float64) Band {
	return Band{
		PassLo: math.Inf(-1), PassHi: pass,
		DriftLo: math.Inf(-1), DriftHi: drift,
	}.normalize()
}

// Eval classifies an observation against the band. NaN never passes.
func (b Band) Eval(v float64) Verdict {
	switch {
	case math.IsNaN(v):
		return Fail
	case v >= b.PassLo && v <= b.PassHi:
		return Pass
	case v >= b.DriftLo && v <= b.DriftHi:
		return Drift
	}
	return Fail
}

// Unit selects how a claim's values render in reports.
type Unit uint8

// Claim value units.
const (
	// Percent renders a fraction as a percentage with one decimal (0.973
	// -> "97.3").
	Percent Unit = iota
	// Points renders a fraction difference as percentage points with two
	// decimals (ordering margins, interference deltas).
	Points
	// Scalar renders the value as-is with up to four significant digits
	// (queue depths, ratios).
	Scalar
)

// Format renders one value in the unit's display convention.
func (u Unit) Format(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "inf"
	case math.IsInf(v, -1):
		return "-inf"
	}
	switch u {
	case Percent:
		return fmt.Sprintf("%.1f", v*100)
	case Points:
		return fmt.Sprintf("%.2f", v*100)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// Claim is one executable paper assertion.
type Claim struct {
	// ID is the stable claim identifier referenced from EXPERIMENTS.md and
	// CI annotations, e.g. "fig4a.bj.coverage.avg".
	ID string
	// Figure names the paper figure or table the claim encodes ("Fig. 4a").
	Figure string
	// Metric is the Measurements key the claim evaluates.
	Metric string
	// Desc states the claim in words.
	Desc string
	// Paper is the paper's reported value or shape, for the report.
	Paper string
	// Band is the tolerance around the expected measured value. Bands are
	// centered on this repository's known-good measurements, not on the
	// paper's absolute numbers: the simulator reproduces the paper's
	// shapes on a different absolute operating point (see EXPERIMENTS.md
	// "How to read the comparison"), and the band's job is to lock the
	// reproduction in place.
	Band Band
	// Unit selects value formatting in reports.
	Unit Unit
}

// Measurements maps metric keys to measured scalars. The experiments
// package builds one from a figure suite plus a metrics registry.
type Measurements map[string]float64

// Spec is a named set of claims.
type Spec struct {
	Name   string
	Claims []Claim
}

// Result is one evaluated claim.
type Result struct {
	Claim    Claim
	Observed float64
	// Measured is false when the metric key was absent, which is itself a
	// Fail: a claim that cannot be evaluated is not protecting anything.
	Measured bool
	Verdict  Verdict
}

// Delta returns the signed distance from the observation to the nearest
// PASS bound, 0 when the observation is inside the PASS interval.
func (r Result) Delta() float64 {
	b := r.Claim.Band
	switch {
	case !r.Measured:
		return math.NaN()
	case r.Observed < b.PassLo:
		return r.Observed - b.PassLo
	case r.Observed > b.PassHi:
		return r.Observed - b.PassHi
	}
	return 0
}

// Report is an evaluated spec.
type Report struct {
	Spec    string
	Results []Result
}

// Evaluate checks every claim of the spec against the measurements, in
// claim order.
func (s Spec) Evaluate(m Measurements) *Report {
	rep := &Report{Spec: s.Name, Results: make([]Result, 0, len(s.Claims))}
	for _, c := range s.Claims {
		v, ok := m[c.Metric]
		r := Result{Claim: c, Observed: v, Measured: ok}
		if ok {
			r.Verdict = c.Band.Eval(v)
		} else {
			r.Verdict = Fail
		}
		rep.Results = append(rep.Results, r)
	}
	return rep
}

// Missing returns the metric keys of claims that m does not cover, in claim
// order. A complete measurement set returns nil.
func (s Spec) Missing(m Measurements) []string {
	var missing []string
	for _, c := range s.Claims {
		if _, ok := m[c.Metric]; !ok {
			missing = append(missing, c.Metric)
		}
	}
	return missing
}

// Counts tallies the verdicts.
func (r *Report) Counts() (pass, drift, fail int) {
	for _, res := range r.Results {
		switch res.Verdict {
		case Pass:
			pass++
		case Drift:
			drift++
		default:
			fail++
		}
	}
	return pass, drift, fail
}

// Failed reports whether any claim failed.
func (r *Report) Failed() bool {
	_, _, fail := r.Counts()
	return fail > 0
}

// Drifting returns the IDs of claims with a DRIFT verdict, in claim order.
func (r *Report) Drifting() []string {
	var ids []string
	for _, res := range r.Results {
		if res.Verdict == Drift {
			ids = append(ids, res.Claim.ID)
		}
	}
	return ids
}

package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"blackjack/internal/fault"
	"blackjack/internal/isa"
	"blackjack/internal/obs"
	"blackjack/internal/pipeline"
	"blackjack/internal/runcache"
	"blackjack/internal/sim"
)

// This file holds the campaign path matrix: every way a campaign run can be
// served, checked against a cold reference on every canonical site list, at
// 1 and at 8 workers. Every fault table of the reproduction rests on one
// property, that a campaign's outcomes do not depend on how its runs were
// served, and this one test is where that property is proven.

// matrixWorkers are the worker counts every cell runs at.
var matrixWorkers = []int{1, 8}

// matrixRow is one site list of the matrix and the machine it runs on.
type matrixRow struct {
	name   string
	bench  string
	mode   pipeline.Mode
	instrs int
	sites  []fault.Site
	// spec selects the list in a served job's spec; empty where the
	// served column does not apply.
	spec string
	// forkEvery is the forked column's checkpoint interval.
	forkEvery int64
	// converges marks lists with a one-shot site whose run reconverges
	// with the warmup at a 250-cycle checkpoint.
	converges bool
	// ffServes marks lists with a site that arms late enough for
	// fast-forward to serve it.
	ffServes bool
}

// matrixRows returns the five canonical per-kind lists, the latent list on
// three benchmarks (one in SRT mode), and a late-transient and never-fires
// mix forked at every cycle. The latent and mixed budgets are those of the
// tests the matrix replaced.
func matrixRows(t *testing.T) []matrixRow {
	mc := pipeline.DefaultConfig()
	var rows []matrixRow
	for _, k := range fault.Kinds() {
		sites, err := sim.SitesForKind(mc, k)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, matrixRow{
			name: k.String(), bench: "gcc", mode: pipeline.ModeBlackJack, instrs: 1000,
			sites: sites, spec: fmt.Sprintf(`"fault_kind": %q`, k), forkEvery: 500,
			converges: k == fault.KindTransient,
		})
	}
	latent := func(bench string, mode pipeline.Mode, instrs int, spec string) matrixRow {
		return matrixRow{
			name: "latent-" + bench + "-" + mode.String(), bench: bench, mode: mode, instrs: instrs,
			sites: sim.LatentSites(mc), spec: spec, forkEvery: 2500, ffServes: true,
		}
	}
	return append(rows,
		latent("gcc", pipeline.ModeBlackJack, 30_000, `"sites": "latent"`),
		// The latent list's sampled runs on two more benchmarks, one in SRT
		// mode; the gcc row already serves the list over HTTP.
		latent("gzip", pipeline.ModeSRT, 20_000, ""),
		latent("crafty", pipeline.ModeBlackJack, 20_000, ""),
		matrixRow{
			name: "mixed", bench: "gcc", mode: pipeline.ModeBlackJack, instrs: 400,
			sites: []fault.Site{
				// Always on: fire within cycles of reset.
				{Class: fault.BackendWay, Unit: isa.UnitIntALU, Way: 0, BitMask: 1 << 9},
				{Class: fault.FrontendWay, Way: 1, Field: fault.FieldRs2},
				{Class: fault.PayloadRAM, Slot: 3, Field: fault.FieldImm, BitMask: 2},
				// Late transients: fork from a late checkpoint.
				{Class: fault.BackendWay, Unit: isa.UnitIntALU, Way: 1, BitMask: 1 << 9, Transient: true, FireAt: 300},
				{Class: fault.FrontendWay, Way: 0, Field: fault.FieldRs1, Transient: true, FireAt: 150},
				// Never fire: served from the warmup.
				{Class: fault.BackendWay, Unit: isa.UnitIntALU, Way: 3,
					TriggerMask: ^uint64(0), TriggerValue: 0xDEADBEEFDEADBEEF},
				{Class: fault.RegisterFile, Reg: 300, BitMask: 1,
					TriggerMask: ^uint64(0), TriggerValue: 0xFEEDFACEFEEDFACE},
			},
			// A snapshot per warmup cycle: every fork point there is.
			forkEvery: 1,
		},
	)
}

// oneShot reports whether the list holds a one-shot transient, the only
// kind of fault a run can be cut at reconvergence for.
func (r matrixRow) oneShot() bool {
	for _, s := range r.sites {
		if s.EffectiveKind() == fault.KindTransient {
			return true
		}
	}
	return false
}

// ffIneligible reports whether no site of the list may be fast-forwarded.
func (r matrixRow) ffIneligible() bool {
	for _, s := range r.sites {
		if s.FFEligible() {
			return false
		}
	}
	return true
}

// matrixPlan is how a campaign's live runs execute.
type matrixPlan struct {
	ckpt int64 // checkpoint interval; rowInterval means the row's forkEvery
	ff   bool
}

// rowInterval stands in for the row's forked-column interval.
const rowInterval = -1

func (r matrixRow) config(p matrixPlan, workers int) sim.Config {
	cfg := sim.Default(r.mode, r.instrs)
	cfg.Parallel = workers
	cfg.CheckpointInterval, cfg.FastForward = p.ckpt, p.ff
	if p.ckpt == rowInterval {
		cfg.CheckpointInterval = r.forkEvery
	}
	cfg.Metrics = obs.NewRegistry()
	return cfg
}

// matrixPass is one campaign of the matrix: its summary, the table bjfault
// prints for it, its campaign.* metrics and the path reason of every run.
type matrixPass struct {
	sum     *sim.CampaignSummary
	table   string
	metrics string
	reg     *obs.Registry
	reasons []string
}

func (p *matrixPass) counter(name string) uint64 { return p.reg.CounterValue(name) }

// campaign runs the row under cfg, whose Metrics must be a fresh registry.
func (r matrixRow) campaign(t *testing.T, cfg sim.Config) (*matrixPass, error) {
	t.Helper()
	p := &matrixPass{reg: cfg.Metrics, reasons: make([]string, len(r.sites))}
	next := cfg.OnProgress
	cfg.OnProgress = func(rp sim.RunProgress) {
		p.reasons[rp.Index] = rp.Reason
		if next != nil {
			next(rp)
		}
	}
	sum, err := sim.Campaign(cfg, r.bench, r.sites, sim.InjectOptions{SplitPayload: true})
	if err != nil {
		return nil, err
	}
	p.sum = sum
	var b bytes.Buffer
	if err := sim.WriteCampaignTable(&b, cfg.Mode, r.bench, sum); err != nil {
		t.Fatal(err)
	}
	p.table = b.String()
	b.Reset()
	if err := cfg.Metrics.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	p.metrics = b.String()
	if got := p.counter("campaign.runs"); got != uint64(len(r.sites)) {
		t.Errorf("campaign.runs = %d, want %d", got, len(r.sites))
	}
	for o, n := range sum.Counts {
		if got := p.counter("campaign.outcome." + o.String()); got != uint64(n) {
			t.Errorf("campaign.outcome.%v = %d, summary counts %d", o, got, n)
		}
	}
	return p, nil
}

func (r matrixRow) mustCampaign(t *testing.T, cfg sim.Config) *matrixPass {
	t.Helper()
	p, err := r.campaign(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// operational strips the summary counters that say how runs were served
// (journal, cache, retries), not what they found.
func operational(s *sim.CampaignSummary) sim.CampaignSummary {
	c := *s
	c.Resumed, c.CacheHits, c.Retried = 0, 0, 0
	return c
}

// exactMatch is the contract of a bit-exact path: the whole summary but
// its operational counters, and the printed table.
func exactMatch(t *testing.T, want, got *matrixPass) {
	t.Helper()
	if w, g := operational(want.sum), operational(got.sum); !reflect.DeepEqual(w, g) {
		for i := range w.Results {
			if !reflect.DeepEqual(w.Results[i], g.Results[i]) {
				t.Errorf("run %d: %+v, want %+v", i, g.Results[i], w.Results[i])
			}
		}
		t.Errorf("summary differs from the reference")
	}
	if got.table != want.table {
		t.Errorf("table differs:\n--- got ---\n%s--- want ---\n%s", got.table, want.table)
	}
}

// sampledMatch is the contract of fast-forward: every run's outcome class
// and activated flag. Cycles, activation totals and latencies of a
// fast-forwarded run are relative to its simulated window.
func sampledMatch(t *testing.T, want, got *matrixPass) {
	t.Helper()
	for i, w := range want.sum.Results {
		g := got.sum.Results[i]
		if g.Outcome != w.Outcome || (g.Activations > 0) != (w.Activations > 0) {
			t.Errorf("run %d (%v): %v activated=%v, cold %v activated=%v",
				i, w.Site, g.Outcome, g.Activations > 0, w.Outcome, w.Activations > 0)
		}
	}
}

// matrixColumn is one way of serving runs: a live plan, or a replay of the
// ff+ckpt plan from the run cache or the journal, or a served job.
type matrixColumn struct {
	name   string
	plan   matrixPlan
	source string // "live", "cache", "journal" or "served"
	// ran proves the cell's path served its runs; without it, a cell that
	// compares cold with cold would pass.
	ran func(t *testing.T, r matrixRow, p *matrixPass)
}

// replayed is the plan the cache and journal columns replay: its records
// carry every path (warm, fast-forward, forked, converged, cold).
var replayed = matrixPlan{ckpt: 500, ff: true}

var matrixColumns = []matrixColumn{
	{"cold", matrixPlan{}, "live", func(t *testing.T, r matrixRow, p *matrixPass) {
		if n := p.counter("campaign.cold_runs"); n != uint64(len(r.sites)) {
			t.Errorf("campaign.cold_runs = %d, want every run", n)
		}
	}},
	{"forked", matrixPlan{ckpt: rowInterval}, "live", func(t *testing.T, r matrixRow, p *matrixPass) {
		if p.counter("campaign.forked_runs") == 0 {
			t.Error("campaign.forked_runs = 0")
		}
	}},
	{"converged", matrixPlan{ckpt: 250}, "live", func(t *testing.T, r matrixRow, p *matrixPass) {
		n := p.counter("campaign.converged.runs")
		switch {
		case r.converges && n == 0:
			t.Error("campaign.converged.runs = 0")
		case !r.oneShot() && n != 0:
			// Only a spent one-shot fault leaves a run that can reconverge.
			t.Errorf("campaign.converged.runs = %d on a list without one-shot sites", n)
		case p.counter("campaign.forked_runs") == 0:
			t.Error("campaign.forked_runs = 0")
		}
	}},
	{"fast-forward", matrixPlan{ff: true}, "live", func(t *testing.T, r matrixRow, p *matrixPass) {
		ranFF(t, r, p)
		// Without checkpoints, every cold run is a fast-forward fallback.
		fb, cold := p.counter("campaign.ff.fallback_cold"), p.counter("campaign.cold_runs")
		if fb != cold || (fb == 0 && r.ffIneligible()) {
			t.Errorf("campaign.ff.fallback_cold = %d, campaign.cold_runs = %d", fb, cold)
		}
	}},
	{"ff+ckpt", replayed, "live", func(t *testing.T, r matrixRow, p *matrixPass) {
		ranFF(t, r, p)
		if r.ffIneligible() && p.counter("campaign.forked_runs") == 0 {
			t.Error("no run forked although fast-forward can serve none")
		}
	}},
	{"cache-warm", replayed, "cache", func(t *testing.T, r matrixRow, p *matrixPass) {
		if p.sum.CacheHits != len(r.sites) {
			t.Errorf("CacheHits = %d, want %d", p.sum.CacheHits, len(r.sites))
		}
	}},
	{"journal-resume", replayed, "journal", func(t *testing.T, r matrixRow, p *matrixPass) {
		if p.sum.Resumed < 1 {
			t.Error("Resumed = 0: no run replayed from the journal")
		}
	}},
	{"served", matrixPlan{}, "served", nil},
}

// ranFF proves a fast-forward plan served the campaign: on the latent
// lists some run was fast-forwarded and stopped at its first detection; on
// lists no site of which is eligible, none was, and the runs say why.
func ranFF(t *testing.T, r matrixRow, p *matrixPass) {
	t.Helper()
	for i, reason := range p.reasons {
		if reason == "no-plan" {
			t.Errorf("run %d took no plan", i)
		}
	}
	ff := p.counter("campaign.ff.runs")
	switch {
	case r.ffServes && (ff == 0 || p.counter("campaign.ff.early_stops") == 0):
		t.Errorf("campaign.ff.runs = %d, campaign.ff.early_stops = %d; want both > 0",
			ff, p.counter("campaign.ff.early_stops"))
	case r.ffIneligible():
		if ff != 0 {
			t.Errorf("campaign.ff.runs = %d, want 0: a timing-sensitive site was fast-forwarded", ff)
		}
		if !slices.ContainsFunc(p.reasons, func(s string) bool { return strings.HasPrefix(s, "ff-ineligible:") }) {
			t.Error("no run reports an ff-ineligible: reason")
		}
	}
}

// TestCampaignPathMatrix checks every way a campaign run can be served
// against a cold reference. Rows are site lists, columns are paths, and
// every cell runs at 1 and at 8 workers:
//
//   - cold, forked and converged runs are bit-exact: the summary, but for
//     its operational counters, and the printed table equal the cold run's;
//   - fast-forward, alone and with checkpoints, keeps every run's outcome
//     class and activated flag; on lists fast-forward can serve none of,
//     the two sampled plans run only bit-exact paths under the same stop
//     at the first detection, so they agree exactly;
//   - cache-warm and journal-resume replay the ff+ckpt plan exactly,
//     metrics included;
//   - a served job's result is the batch table byte for byte;
//   - in every live column, each site injected alone (sim.Inject) equals
//     its row of the campaign exactly, at 1 worker.
//
// The campaign.* metrics of every (list, path) are identical at 1 and 8
// workers, and every cell proves its own path served its runs.
func TestCampaignPathMatrix(t *testing.T) {
	for _, r := range matrixRows(t) {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			ref := r.mustCampaign(t, r.config(matrixPlan{}, 1))
			type cell struct {
				plan    matrixPlan
				workers int
			}
			live := map[cell]*matrixPass{}
			livePass := func(t *testing.T, plan matrixPlan, w int) *matrixPass {
				t.Helper()
				p := live[cell{plan, w}]
				if p == nil {
					t.Fatalf("no live pass of %+v at %d workers to compare with", plan, w)
				}
				return p
			}
			for _, col := range matrixColumns {
				t.Run(col.name, func(t *testing.T) {
					if col.source == "served" {
						r.served(t, ref)
						return
					}
					var passes []*matrixPass
					for _, w := range matrixWorkers {
						var p *matrixPass
						switch col.source {
						case "live":
							p = ref
							if col.plan != (matrixPlan{}) || w != 1 {
								p = r.mustCampaign(t, r.config(col.plan, w))
							}
							live[cell{col.plan, w}] = p
							switch {
							case !col.plan.ff:
								exactMatch(t, ref, p)
							case col.plan.ckpt > 0 && r.ffIneligible():
								exactMatch(t, livePass(t, matrixPlan{ff: true}, w), p)
								fallthrough
							default:
								sampledMatch(t, ref, p)
							}
							if w == 1 {
								r.standaloneMatch(t, col.plan, p)
							}
						case "cache":
							p = r.cacheWarm(t, col.plan, w)
						case "journal":
							p = r.journalResume(t, col.plan, w, livePass(t, col.plan, w))
						}
						if t.Failed() {
							t.FailNow()
						}
						col.ran(t, r, p)
						passes = append(passes, p)
					}
					exactMatch(t, passes[0], passes[1])
					if passes[0].metrics != passes[1].metrics {
						t.Errorf("campaign metrics differ between 1 and 8 workers:\n--- 1 ---\n%s\n--- 8 ---\n%s", passes[0].metrics, passes[1].metrics)
					}
				})
			}
		})
	}
}

// standaloneMatch injects every site of the row alone under the live
// cell's plan, traced and metered: a standalone injection is a one-site
// campaign that observes its own run, so each must equal the campaign's
// row exactly, and each run the campaign served live (not from the
// warmup) must have recorded machine events.
func (r matrixRow) standaloneMatch(t *testing.T, plan matrixPlan, p *matrixPass) {
	t.Helper()
	cfg := r.config(plan, 1)
	for i, site := range r.sites {
		// The ring only needs to count: Total includes evicted events.
		cfg.Trace, cfg.Metrics = obs.NewTracer(64), obs.NewRegistry()
		got, err := sim.Inject(cfg, r.bench, site, sim.InjectOptions{SplitPayload: true})
		if err != nil {
			t.Fatal(err)
		}
		if warm := p.reasons[i] == "never-fires"; warm != (cfg.Trace.Total() == 0) {
			t.Errorf("run %d injected alone (reason %q) recorded %d machine events; want events exactly when the run is live",
				i, p.reasons[i], cfg.Trace.Total())
		}
		if want := p.sum.Results[i]; !reflect.DeepEqual(got, want) {
			t.Errorf("run %d injected alone: %+v, campaign row %+v", i, got, want)
		}
	}
}

// cacheWarm fills a run cache with one live pass, then serves a second pass
// from it, which must reproduce the live pass exactly, metrics included.
// At 8 workers the second pass also recomputes every hit and compares.
func (r matrixRow) cacheWarm(t *testing.T, plan matrixPlan, workers int) *matrixPass {
	t.Helper()
	store, err := runcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := r.config(plan, workers)
	cfg.Cache = store
	fill := r.mustCampaign(t, cfg)
	if fill.sum.CacheHits != 0 {
		t.Errorf("the filling pass reports %d cache hits", fill.sum.CacheHits)
	}
	cfg = r.config(plan, workers)
	cfg.Cache = store
	if workers > 1 {
		cfg.CacheVerify = 1
	}
	warm := r.mustCampaign(t, cfg)
	exactMatch(t, fill, warm)
	if warm.metrics != fill.metrics {
		t.Errorf("cache-served metrics differ from the live pass:\n--- cache ---\n%s\n--- live ---\n%s", warm.metrics, fill.metrics)
	}
	if st := store.Stats(); cfg.CacheVerify > 0 && (st.VerifyRuns < uint64(len(r.sites)) || st.VerifyDivergences != 0) {
		t.Errorf("%d verify runs, %d divergences; want >= %d and 0", st.VerifyRuns, st.VerifyDivergences, len(r.sites))
	}
	return warm
}

// journalResume journals a pass that is cancelled after 3/4 of its runs
// completed and resumes the journal at the other worker count. The resumed
// campaign must reproduce the uninterrupted live pass exactly, metrics
// included.
func (r matrixRow) journalResume(t *testing.T, plan matrixPlan, workers int, want *matrixPass) *matrixPass {
	t.Helper()
	path := filepath.Join(t.TempDir(), "campaign.journal")
	cfg := r.config(plan, workers)
	cfg.JournalPath = path
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Ctx = ctx
	var done atomic.Int64
	stopAt := int64(len(r.sites) - len(r.sites)/4)
	cfg.OnProgress = func(sim.RunProgress) {
		if done.Add(1) == stopAt {
			cancel()
		}
	}
	if _, err := r.campaign(t, cfg); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}

	other := matrixWorkers[0]
	if other == workers {
		other = matrixWorkers[1]
	}
	cfg = r.config(plan, other)
	cfg.JournalPath = path
	p := r.mustCampaign(t, cfg)
	exactMatch(t, want, p)
	if p.metrics != want.metrics {
		t.Errorf("resumed metrics differ from the uninterrupted pass:\n--- resumed ---\n%s\n--- live ---\n%s", p.metrics, want.metrics)
	}
	return p
}

// served submits the row as a job over HTTP with the cache off, at 1 and
// at 8 workers, and compares the result with the batch table.
func (r matrixRow) served(t *testing.T, ref *matrixPass) {
	t.Helper()
	if r.spec == "" {
		t.Skip("served only for the canonical site lists on gcc")
	}
	s := newTestServer(t, Options{Workers: 1})
	s.Start()
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, w := range matrixWorkers {
		j := submit(t, ts, fmt.Sprintf(`{"benchmark": %q, "mode": %q, "instructions": %d, %s, "parallel": %d, "cache": "off"}`,
			r.bench, r.mode, r.instrs, r.spec, w))
		waitState(t, s, j.ID, StateDone)
		status, got := getBody(t, ts.URL+"/api/v1/jobs/"+j.ID+"/result")
		if status != http.StatusOK {
			t.Fatalf("%d workers: result status %d", w, status)
		}
		if got != ref.table {
			t.Errorf("%d workers: served table differs from batch:\n--- served ---\n%s--- batch ---\n%s", w, got, ref.table)
		}
		if done, _ := s.Job(j.ID); done.Done != len(r.sites) || done.Total != len(r.sites) {
			t.Errorf("%d workers: job ran %d of %d runs, want %d", w, done.Done, done.Total, len(r.sites))
		}
	}
}

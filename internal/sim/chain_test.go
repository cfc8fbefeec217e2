package sim

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"blackjack/internal/fault"
	"blackjack/internal/obs"
	"blackjack/internal/pipeline"
	"blackjack/internal/prog"
	"blackjack/internal/runcache"
)

// campaignRun is one campaign's arguments, run on a given store.
type campaignRun struct {
	cfg     Config
	bench   string
	sites   []fault.Site
	windows []Window
}

// run runs the campaign with store as its run store (nil: none).
func (r campaignRun) run(t *testing.T, store *runcache.Store) *CampaignSummary {
	t.Helper()
	cfg := r.cfg
	cfg.Cache = store
	sum, err := CampaignWindows(cfg, prog.MustBenchmark(r.bench), r.sites, r.windows, InjectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// sharesExactly fills a fresh store with campaign a, then runs campaign b
// on the same store. b must be served exactly the shared cells a stored,
// no other, and its summary must equal a run of b with no store: a cell
// is addressed by everything its run depends on, so no cell can be served
// to a campaign it was not written for.
func sharesExactly(t *testing.T, a, b campaignRun, shared int) {
	t.Helper()
	store := testStore(t)
	a.run(t, store)
	got := b.run(t, store)
	want := b.run(t, nil)
	if got.CacheHits != shared {
		t.Errorf("CacheHits = %d, want %d (the cells the two campaigns share)", got.CacheHits, shared)
	}
	got.CacheHits = 0
	if !reflect.DeepEqual(got, want) {
		t.Errorf("the campaign on the shared store differs from its run with no store:\n got %s\nwant %s",
			summaryString(got), summaryString(want))
	}
}

// A store filled by a campaign over one site list serves nothing to a list
// that differs only in fields fault.Site's String method drops: the fault
// kind (permanent vs one-shot transient) and the intermittent duty period.
// Keys formatted with %+v made such lists share cells, so the other
// campaign's table came back.
func TestCampaignJournalRefusesOtherFaultKind(t *testing.T) {
	cfg := Default(pipeline.ModeBlackJack, 2000)
	permanent, err := SitesForKind(cfg.Machine, fault.KindPermanent)
	if err != nil {
		t.Fatal(err)
	}
	transient, err := SitesForKind(cfg.Machine, fault.KindTransient)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name        string
		wrote, read []fault.Site
	}{
		{"permanent->transient", permanent, transient},
		{"intermittent->transient", IntermittentSites(cfg.Machine, 64, 16, 75), transient},
		{"intermittent duty period", IntermittentSites(cfg.Machine, 64, 16, 75), IntermittentSites(cfg.Machine, 32, 16, 75)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sharesExactly(t, campaignRun{cfg: cfg, bench: "gcc", sites: tc.wrote},
				campaignRun{cfg: cfg, bench: "gcc", sites: tc.read}, 0)
		})
	}
}

// A store filled by one grouping of sites into windows serves another
// grouping only the windows both groupings hold: here the one-site
// windows. A multi-site window's key carries its bounds.
func TestCampaignJournalRefusesRegroupedWindows(t *testing.T) {
	cfg := Default(pipeline.ModeBlackJack, 2000)
	sites := StandardSites(cfg.Machine)[:4]
	wrote := campaignRun{cfg: cfg, bench: "gcc", sites: sites, windows: []Window{{0, 2}, {2, 3}, {3, 4}}}
	for _, tc := range []struct {
		read   []Window
		shared int
	}{
		{[]Window{{0, 3}, {3, 4}}, 1}, // [3,4)
		{[]Window{{0, 1}, {1, 3}, {3, 4}}, 1},
		{nil, 2}, // per site: [2,3) and [3,4)
	} {
		sharesExactly(t, wrote, campaignRun{cfg: cfg, bench: "gcc", sites: sites, windows: tc.read}, tc.shared)
	}
}

// Every path reason is reported for the run it explains, once each.
func TestPathReasons(t *testing.T) {
	p, err := prog.Benchmark("gcc")
	if err != nil {
		t.Fatal(err)
	}
	base := Default(pipeline.ModeBlackJack, 3000)
	// alwaysOn fires within cycles of reset; never waits for an operand
	// pattern that never occurs.
	alwaysOn := fault.Site{Class: fault.FrontendWay, Way: 0, Field: fault.FieldRs2}
	never := LatentSites(base.Machine)[6]
	transient := TransientSites(base.Machine, 20)[4]

	// campaign runs site alone and returns the reason its run reported.
	campaign := func(t *testing.T, cfg Config, site fault.Site) string {
		t.Helper()
		var got RunProgress
		cfg.OnProgress = func(rp RunProgress) { got = rp }
		if _, err := CampaignProgram(cfg, p, []fault.Site{site}, InjectOptions{}); err != nil {
			t.Fatal(err)
		}
		return got.Reason
	}
	with := func(ckpt int64, ff bool) Config {
		cfg := base
		cfg.CheckpointInterval, cfg.FastForward = ckpt, ff
		return cfg
	}
	cases := []struct {
		want   string
		reason func(t *testing.T) string
	}{
		{reasonNeverFires, func(t *testing.T) string { return campaign(t, with(500, false), never) }},
		{reasonFFIneligible + "transient", func(t *testing.T) string { return campaign(t, with(0, true), transient) }},
		{reasonBeforeFirstMark, func(t *testing.T) string { return campaign(t, with(0, true), alwaysOn) }},
		{reasonNoCheckpoint, func(t *testing.T) string { return campaign(t, with(500, false), alwaysOn) }},
		{reasonNoPlan, func(t *testing.T) string { return campaign(t, with(0, false), alwaysOn) }},
		{reasonWarmupInvalid, func(t *testing.T) string {
			// A cancelled warmup leaves the plan invalid; the run itself is
			// unbudgeted and goes cold.
			cfg := with(500, false)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			cfg.Ctx = ctx
			pl, err := NewCampaignPlan(cfg, p, []fault.Site{alwaysOn}, InjectOptions{})
			if err != nil {
				t.Fatal(err)
			}
			_, pi, err := pl.injectCtx(nil, 0, 1, newRunStorage())
			if err != nil {
				t.Fatal(err)
			}
			return pi.Reason
		}},
		{reasonCacheDivergence, func(t *testing.T) string {
			// A wrong stored record under the cell's key, verified on every hit.
			cfg := with(0, false)
			cfg.Cache, cfg.CacheVerify = testStore(t), 1
			cell := campaignIdentity(cfg, p.Name, InjectOptions{}).
				Add("prog_fp", programFingerprint(p)).AddJSON("site", alwaysOn)
			if err := cfg.Cache.Put(cell, runRecord{Result: InjectionResult{Site: alwaysOn, Outcome: OutcomeSilent}}); err != nil {
				t.Fatal(err)
			}
			reason := campaign(t, cfg, alwaysOn)
			if st := cfg.Cache.Stats(); st.Hits != 1 || st.VerifyDivergences != 1 {
				t.Errorf("cache stats = %+v, want one hit with one verify divergence", st)
			}
			return reason
		}},
	}
	for _, tc := range cases {
		t.Run(tc.want, func(t *testing.T) {
			if got := tc.reason(t); got != tc.want {
				t.Errorf("reason = %q, want %q", got, tc.want)
			}
		})
	}
}

// A standalone injection on a store filled by a campaign over another site
// is served nothing from it. When callers opened a positional journal, a
// [register p400] injection on gcc at 2,000 instructions given a
// [frontend-way 0] campaign's journal returned the frontend row (detected,
// 1635 activations), where live it is benign with 6.
func TestInjectRefusesForeignJournal(t *testing.T) {
	p, err := prog.Benchmark("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default(pipeline.ModeBlackJack, 2000)
	frontend := fault.Site{Class: fault.FrontendWay, Way: 0, Field: fault.FieldRs2}
	register := fault.Site{Class: fault.RegisterFile, Reg: 400, BitMask: 1 << 5}
	want, err := InjectProgram(cfg, p, register, InjectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache = testStore(t)
	other, err := CampaignProgram(cfg, p, []fault.Site{frontend}, InjectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(other.Results[0], want) {
		t.Fatal("the two sites give one row; the test cannot tell them apart")
	}
	got, err := InjectProgram(cfg, p, register, InjectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if hits := cfg.Cache.Stats().Hits; hits != 0 {
		t.Errorf("the injection was served %d cells of the frontend campaign", hits)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("injection on the frontend campaign's store: %+v, want %+v", got, want)
	}
}

// An observed injection runs its one run live and once, so it refuses
// retries, whose attempts would all count in the registry, rather than
// ignoring them. The case: a metered [register p400] injection on gcc at
// 2,000 instructions (benign, 6 activations when run).
func TestObservedInjectRefusesJournalAndRetries(t *testing.T) {
	p, err := prog.Benchmark("gcc")
	if err != nil {
		t.Fatal(err)
	}
	register := fault.Site{Class: fault.RegisterFile, Reg: 400, BitMask: 1 << 5}
	t.Run("Retries", func(t *testing.T) {
		cfg := Default(pipeline.ModeBlackJack, 2000)
		cfg.Metrics = obs.NewRegistry()
		cfg.Resilience.Retries = 1
		r, err := InjectProgram(cfg, p, register, InjectOptions{})
		if err == nil || !strings.Contains(err.Error(), "Retries") {
			t.Fatalf("err = %v (result %v, %d activations), want an error naming Retries", err, r.Outcome, r.Activations)
		}
		if n := cfg.Metrics.CounterValue("fault.activations"); n != 0 {
			t.Errorf("the refused injection recorded %d activations", n)
		}
	})
}

// A traced and metered injection observes the run its one-site campaign
// makes and returns that run's row, its registry holding the machine's
// metrics and the campaign's counters. Observation belongs to the
// injection: a one-site campaign over the same site with a registry
// attached records only campaign.* keys.
func TestObservedInjectIsItsCampaignRun(t *testing.T) {
	p, err := prog.Benchmark("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default(pipeline.ModeBlackJack, 3000)
	cfg.CheckpointInterval, cfg.FastForward = 500, true
	site := fault.Site{Class: fault.RegisterFile, Reg: 400, BitMask: 1 << 5}
	want, err := InjectProgram(cfg, p, site, InjectOptions{})
	if err != nil {
		t.Fatal(err)
	}

	observed := cfg
	observed.Trace, observed.Metrics = obs.NewTracer(64), obs.NewRegistry()
	got, err := InjectProgram(observed, p, site, InjectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("observed row %+v, unobserved %+v", got, want)
	}
	reg := observed.Metrics
	if observed.Trace.Total() == 0 || reg.CounterValue("pipeline.cycles") == 0 || reg.CounterValue("campaign.runs") != 1 {
		t.Errorf("%d events, pipeline.cycles = %d, campaign.runs = %d; want a traced, metered campaign run",
			observed.Trace.Total(), reg.CounterValue("pipeline.cycles"), reg.CounterValue("campaign.runs"))
	}

	metered := cfg
	metered.Metrics = obs.NewRegistry()
	if _, err := CampaignProgram(metered, p, []fault.Site{site}, InjectOptions{}); err != nil {
		t.Fatal(err)
	}
	m := metered.Metrics
	for _, name := range slices.Concat(m.CounterNames(), m.GaugeNames(), m.HistogramNames()) {
		if !strings.HasPrefix(name, "campaign.") {
			t.Errorf("a one-site campaign recorded %s", name)
		}
	}
}

// A run is durable before it is reported: with OnProgress set, every
// progress event finds its run's cell already readable through a second
// store opened on the same directory, live and store-served runs alike.
func TestCampaignJournalDurableBeforeProgress(t *testing.T) {
	dir := t.TempDir()
	store, err := runcache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := prog.MustBenchmark("gcc")
	sites := resilienceSites()
	for _, resume := range []bool{false, true} {
		cfg := Default(pipeline.ModeBlackJack, 2000)
		cfg.Parallel = 2
		cfg.Cache = store
		cell := campaignIdentity(cfg, p.Name, InjectOptions{}).Add("prog_fp", programFingerprint(p))
		var mu sync.Mutex
		var missing []int
		cfg.OnProgress = func(rp RunProgress) {
			other, err := runcache.Open(dir, 0)
			id := addWindow(runcache.NewIdentity(cell.Parts()...), sites, Window{rp.Index, rp.Index + 1})
			var rec runRecord
			if err != nil || !other.Get(id, &rec) || !reflect.DeepEqual(rec.Result, rp.Result) {
				mu.Lock()
				missing = append(missing, rp.Index)
				mu.Unlock()
			}
		}
		sum, err := CampaignProgram(cfg, p, sites, InjectOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if resume != (sum.CacheHits == len(sites)) {
			t.Fatalf("resume=%v: %d of %d runs served from the store", resume, sum.CacheHits, len(sites))
		}
		if len(missing) > 0 {
			t.Errorf("resume=%v: runs %v were reported before their cell was in the store", resume, missing)
		}
	}
}

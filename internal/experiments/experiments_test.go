package experiments

import (
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"blackjack/internal/pipeline"
	"blackjack/internal/runcache"
	"blackjack/internal/sim"
)

// smallOpts keeps unit-test runtimes modest; the real harness uses 300k.
func smallOpts(benchmarks ...string) Options {
	return Options{
		Config:     sim.Default(pipeline.ModeSingle, 4000),
		Benchmarks: benchmarks,
	}
}

func TestTable1ListsEveryParameter(t *testing.T) {
	out := Table1(pipeline.DefaultConfig()).String()
	for _, want := range []string{
		"4 instructions/cycle", "512 entries (64-entry LSQ)", "32 entries",
		"64KB 4-way 2-cycle", "350 cycles", "4 int ALUs, 2 int multipliers, 2 int dividers",
		"2 FP ALUs, 2 FP multipliers", "64 entries", "128 entries", "96 entries",
		"256 instructions", "1024 instructions",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestSuiteFiguresOnSubset(t *testing.T) {
	s, err := RunSuite(smallOpts("gzip", "equake"))
	if err != nil {
		t.Fatal(err)
	}
	total, backend := s.Figure4()
	if len(total) != 3 || len(backend) != 3 { // 2 benchmarks + average
		t.Fatalf("fig4 rows = %d/%d, want 3/3", len(total), len(backend))
	}
	for _, r := range total[:2] {
		if r.BlackJack <= r.SRT {
			t.Errorf("%s: BlackJack coverage %.3f <= SRT %.3f", r.Benchmark, r.BlackJack, r.SRT)
		}
		if r.BlackJack < 0.80 {
			t.Errorf("%s: BlackJack coverage %.3f too low", r.Benchmark, r.BlackJack)
		}
	}
	if rows := s.Figure5(); len(rows) != 3 {
		t.Errorf("fig5 rows = %d", len(rows))
	}
	if rows := s.Figure6(); len(rows) != 3 {
		t.Errorf("fig6 rows = %d", len(rows))
	}
	f7 := s.Figure7()
	if len(f7) != 3 {
		t.Fatalf("fig7 rows = %d", len(f7))
	}
	for _, r := range f7[:2] {
		if !(r.SRT >= r.BlackJackNS && r.BlackJackNS >= r.BlackJack) {
			t.Errorf("%s: perf ordering violated: srt %.3f bjns %.3f bj %.3f",
				r.Benchmark, r.SRT, r.BlackJackNS, r.BlackJack)
		}
		if r.BlackJack <= 0 || r.SRT > 1.0001 {
			t.Errorf("%s: normalized perf out of range", r.Benchmark)
		}
	}
	// Tables render with a row per benchmark plus the average.
	for _, tb := range []interface{ NumRows() int }{
		s.Figure4aTable(), s.Figure4bTable(), s.Figure5Table(), s.Figure6Table(), s.Figure7Table(),
	} {
		if tb.NumRows() != 3 {
			t.Errorf("table rows = %d, want 3", tb.NumRows())
		}
	}
	h := s.Headline()
	if h.BJCoverage <= h.SRTCoverage {
		t.Error("headline: BlackJack coverage should dominate SRT")
	}
	if s.HeadlineTable().NumRows() != 9 {
		t.Error("headline table incomplete")
	}
}

func TestExtAFaultInjection(t *testing.T) {
	rows, err := ExtAFaultInjection(smallOpts(), "gcc")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 modes", len(rows))
	}
	byMode := map[pipeline.Mode]ExtARow{}
	for _, r := range rows {
		byMode[r.Mode] = r
		if r.Detected+r.Silent+r.Benign+r.Wedged != r.Sites {
			t.Errorf("%v: outcomes do not sum to sites", r.Mode)
		}
	}
	if byMode[pipeline.ModeSingle].Detected != 0 {
		t.Error("single-thread machine cannot detect anything")
	}
	if byMode[pipeline.ModeBlackJack].Rate <= byMode[pipeline.ModeSRT].Rate {
		t.Errorf("BlackJack detection rate %.2f should beat SRT %.2f",
			byMode[pipeline.ModeBlackJack].Rate, byMode[pipeline.ModeSRT].Rate)
	}
	if byMode[pipeline.ModeBlackJack].Rate < 0.85 {
		t.Errorf("BlackJack detection rate %.2f too low", byMode[pipeline.ModeBlackJack].Rate)
	}
	if ExtATable(rows, "gcc").NumRows() != 3 {
		t.Error("ExtA table incomplete")
	}
}

func TestExtBDecomposition(t *testing.T) {
	s, err := RunSuite(smallOpts("sixtrack"))
	if err != nil {
		t.Fatal(err)
	}
	if tb := s.ExtBTable(); tb.NumRows() != 2 {
		t.Errorf("ExtB rows = %d, want 2", tb.NumRows())
	}
}

func TestExtCPayloadSweep(t *testing.T) {
	opts := smallOpts()
	opts.MaxInstructions = 2000
	rows, err := ExtCPayloadRAM(opts, []string{"gzip"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	// Split payload RAMs must never corrupt silently; shared ones may.
	if r.SplitSilent != 0 {
		t.Errorf("split payload RAMs produced %d silent corruptions", r.SplitSilent)
	}
	if ExtCTable(rows).NumRows() != 1 {
		t.Error("ExtC table incomplete")
	}
}

func TestExtDSweep(t *testing.T) {
	opts := smallOpts()
	opts.MaxInstructions = 3000
	rows, err := ExtDSweep(opts, "gcc", []int{64, 256}, []int{256, 1024})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Perf <= 0 || r.Perf > 1.001 {
			t.Errorf("%s=%d: perf %.3f out of range", r.Param, r.Value, r.Perf)
		}
		if r.Coverage < 0.5 {
			t.Errorf("%s=%d: coverage %.3f implausibly low", r.Param, r.Value, r.Coverage)
		}
	}
	if ExtDTable(rows).NumRows() != 4 {
		t.Error("ExtD table incomplete")
	}
}

func TestExtEMergingShuffle(t *testing.T) {
	opts := smallOpts()
	opts.MaxInstructions = 6000
	rows, err := ExtEMergingShuffle(opts, []string{"sixtrack"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.Merged == 0 {
		t.Error("no packets merged on a high-ILP benchmark")
	}
	if r.MergePerf < r.BasePerf-0.02 {
		t.Errorf("merging slowed things down: %.3f < %.3f", r.MergePerf, r.BasePerf)
	}
	if r.PacketsMrg >= r.PacketsBase {
		t.Errorf("merging did not reduce trailing packets: %d >= %d", r.PacketsMrg, r.PacketsBase)
	}
	if r.MergeCov < r.BaseCov-0.05 {
		t.Errorf("merging cost too much coverage: %.3f vs %.3f", r.MergeCov, r.BaseCov)
	}
	if ExtETable(rows).NumRows() != 1 {
		t.Error("ExtE table incomplete")
	}
}

func TestExtFMultiFault(t *testing.T) {
	opts := smallOpts()
	opts.MaxInstructions = 2500
	rows, err := ExtFMultiFault(opts, "gcc", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	for _, r := range rows {
		if r.Runs == 0 {
			t.Errorf("k=%d: no runs", r.Faults)
		}
		if r.Silent > 0 {
			t.Errorf("k=%d: %d silent corruptions under BlackJack", r.Faults, r.Silent)
		}
	}
	if ExtFTable(rows, "gcc").NumRows() != 3 {
		t.Error("ExtF table incomplete")
	}
}

// Checkpointed campaigns must not change any experiment figure: Ext-A rows
// are byte-identical with and without an interval, and Ext-F rows, which
// show only outcome classes and activated flags, also under fast-forward.
func TestExtCampaignsByteIdenticalWithCheckpointing(t *testing.T) {
	opts := smallOpts()
	opts.MaxInstructions = 2500

	coldA, err := ExtAFaultInjection(opts, "gcc")
	if err != nil {
		t.Fatal(err)
	}
	coldF, err := ExtFMultiFault(opts, "gcc", 3)
	if err != nil {
		t.Fatal(err)
	}

	opts.CheckpointInterval = 500
	ckptA, err := ExtAFaultInjection(opts, "gcc")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(coldA, ckptA) {
		t.Errorf("ExtA diverged under checkpointing:\ncold %+v\nckpt %+v", coldA, ckptA)
	}
	for _, plan := range []struct {
		ckpt int64
		ff   bool
	}{{500, false}, {0, true}, {500, true}} {
		opts.CheckpointInterval, opts.FastForward = plan.ckpt, plan.ff
		rows, err := ExtFMultiFault(opts, "gcc", 3)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(coldF, rows) {
			t.Errorf("ExtF diverged under checkpoint interval %d, ff=%v:\ncold %+v\ngot  %+v", plan.ckpt, plan.ff, coldF, rows)
		}
	}
}

func TestExtGSoftErrors(t *testing.T) {
	opts := smallOpts()
	opts.MaxInstructions = 5000
	rows, err := ExtGSoftErrors(opts, "gcc")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		switch r.Mode {
		case pipeline.ModeSingle:
			if r.Detected != 0 {
				t.Error("single-thread machine detected a transient")
			}
		default:
			// Temporal redundancy suffices for soft errors: no silent
			// corruption under either redundant mode.
			if r.Silent != 0 {
				t.Errorf("%v: %d silent transient corruptions", r.Mode, r.Silent)
			}
		}
	}
	if ExtGTable(rows, "gcc").NumRows() != 3 {
		t.Error("ExtG table incomplete")
	}
}

func TestFigureChartsAndSVGs(t *testing.T) {
	s, err := RunSuite(smallOpts("gzip", "equake"))
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]interface{ Validate() error }{
		"fig4a": s.Figure4aChart(), "fig4b": s.Figure4bChart(),
		"fig5": s.Figure5Chart(), "fig6": s.Figure6Chart(), "fig7": s.Figure7Chart(),
	} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	dir := t.TempDir()
	paths, err := s.WriteSVGs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 5 {
		t.Fatalf("wrote %d files, want 5", len(paths))
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), "</svg>") {
			t.Errorf("%s: not an SVG", p)
		}
	}
}

func TestExtHSeedRobustness(t *testing.T) {
	opts := smallOpts("gzip", "equake")
	opts.MaxInstructions = 5000
	rows, err := ExtHSeedRobustness(opts, []uint64{0, 5000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.BJCov <= r.SRTCov {
			t.Errorf("seed+%d: BJ coverage %.3f <= SRT %.3f", r.SeedOffset, r.BJCov, r.SRTCov)
		}
		if r.BJCov < 0.85 {
			t.Errorf("seed+%d: BJ coverage %.3f collapsed", r.SeedOffset, r.BJCov)
		}
	}
	// Reseeding must actually change the workload (different exact numbers).
	if rows[0].BJPerf == rows[1].BJPerf && rows[0].SRTCov == rows[1].SRTCov {
		t.Error("reseeding produced identical metrics; offset not applied")
	}
	if ExtHTable(rows, opts.Benchmarks).NumRows() != 2 {
		t.Error("ExtH table incomplete")
	}
}

// TestOnRunObservesEveryCampaignRun exercises the job-level progress hook:
// OnProgress must fire once per campaign run on the first (live) pass and again
// on a pass over the same run store, where every run reports Served == "cache".
func TestOnRunObservesEveryCampaignRun(t *testing.T) {
	opts := smallOpts()
	store, err := runcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	opts.Cache = store
	var mu sync.Mutex
	var live, replayed, other int
	opts.OnProgress = func(p sim.RunProgress) {
		mu.Lock()
		defer mu.Unlock()
		switch p.Served {
		case "cache":
			replayed++
		case "cold", "forked", "warm", "fast-forward":
			live++
		default:
			other++
		}
	}
	if _, err := ExtAFaultInjection(opts, "gcc"); err != nil {
		t.Fatal(err)
	}
	want := 3 * len(sim.StandardSites(opts.Machine)) // three modes over the site list
	if live != want || replayed != 0 || other != 0 {
		t.Fatalf("first pass: live=%d replayed=%d other=%d, want live=%d", live, replayed, other, want)
	}
	live, replayed = 0, 0
	if _, err := ExtAFaultInjection(opts, "gcc"); err != nil {
		t.Fatal(err)
	}
	if replayed != want || live != 0 {
		t.Fatalf("second pass: live=%d stored=%d, want all %d from the store", live, replayed, want)
	}
}

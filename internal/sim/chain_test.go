package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"blackjack/internal/fault"
	"blackjack/internal/journal"
	"blackjack/internal/pipeline"
	"blackjack/internal/prog"
)

// A journal written for one site list refuses every list that differs only
// in fields fault.Site's String method drops: the fault kind (permanent vs
// one-shot transient) and the intermittent duty period. Formatting sites
// with %+v made such lists share one key, so a resume replayed the other
// campaign's table.
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
			path := filepath.Join(t.TempDir(), "k.journal")
			writeJournalAt(t, path, cfg, "gcc", tc.wrote, nil)
			err := openJournalAt(path, cfg, "gcc", tc.read, nil)
			if !errors.Is(err, journal.ErrKeyMismatch) {
				t.Fatalf("err = %v, want ErrKeyMismatch", err)
			}
			if !strings.Contains(err.Error(), `"site=`) {
				t.Errorf("mismatch does not name the changed site: %v", err)
			}
		})
	}
}

// A journal written for one grouping of sites into windows refuses another
// grouping of the same sites, per-site included, naming the window bounds.
func TestCampaignJournalRefusesRegroupedWindows(t *testing.T) {
	cfg := Default(pipeline.ModeBlackJack, 2000)
	sites := StandardSites(cfg.Machine)[:4]
	wrote := []Window{{0, 2}, {2, 4}}
	for _, read := range [][]Window{{{0, 3}, {3, 4}}, nil} {
		path := filepath.Join(t.TempDir(), "w.journal")
		writeJournalAt(t, path, cfg, "gcc", sites, wrote)
		err := openJournalAt(path, cfg, "gcc", sites, read)
		if !errors.Is(err, journal.ErrKeyMismatch) {
			t.Fatalf("windows %v: err = %v, want ErrKeyMismatch", read, err)
		}
		if !strings.Contains(err.Error(), `window=`) {
			t.Errorf("windows %v: mismatch does not name the window bounds: %v", read, err)
		}
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

// A standalone injection given the journal of a campaign over another site
// is refused, never served that campaign's row. When callers opened the
// journal, a [register p400] injection on gcc at 2,000 instructions given
// a [frontend-way 0] campaign's journal returned the frontend row
// (detected, 1635 activations), where live it is benign with 6. The
// refused attempt leaves the journal as it was.
func TestInjectRefusesForeignJournal(t *testing.T) {
	p, err := prog.Benchmark("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default(pipeline.ModeBlackJack, 2000)
	cfg.JournalPath = filepath.Join(t.TempDir(), "frontend.journal")
	frontend := fault.Site{Class: fault.FrontendWay, Way: 0, Field: fault.FieldRs2}
	register := fault.Site{Class: fault.RegisterFile, Reg: 400, BitMask: 1 << 5}
	if _, err := CampaignProgram(cfg, p, []fault.Site{frontend}, InjectOptions{}); err != nil {
		t.Fatal(err)
	}
	wrote, err := os.ReadFile(cfg.JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	r, err := InjectProgram(cfg, p, register, InjectOptions{})
	if !errors.Is(err, journal.ErrKeyMismatch) {
		t.Fatalf("err = %v (result %v, %v), want ErrKeyMismatch", err, r.Site, r.Outcome)
	}
	if after, _ := os.ReadFile(cfg.JournalPath); !bytes.Equal(after, wrote) {
		t.Error("the refused injection changed the journal")
	}
}

// hasRecord reports whether raw, a journal's bytes, holds a complete
// record line for entry i: newline-terminated, with a parsable record.
func hasRecord(raw []byte, i int) bool {
	lines := bytes.SplitAfter(raw, []byte("\n"))
	for _, line := range lines[1:] {
		var env struct {
			I int             `json:"i"`
			R json.RawMessage `json:"r"`
		}
		var rec runRecord
		if bytes.HasSuffix(line, []byte("\n")) && json.Unmarshal(line, &env) == nil &&
			env.I == i && json.Unmarshal(env.R, &rec) == nil {
			return true
		}
	}
	return false
}

// A run is durable before it is reported: with OnProgress set, every
// progress event finds its run's complete record already in the journal
// file, live and resumed runs alike.
func TestCampaignJournalDurableBeforeProgress(t *testing.T) {
	path := filepath.Join(t.TempDir(), "durable.journal")
	sites := resilienceSites()
	for _, resume := range []bool{false, true} {
		cfg := Default(pipeline.ModeBlackJack, 2000)
		cfg.Parallel = 2
		cfg.JournalPath = path
		var mu sync.Mutex
		var missing []int
		cfg.OnProgress = func(rp RunProgress) {
			raw, err := os.ReadFile(path)
			if err != nil || !hasRecord(raw, rp.Index) {
				mu.Lock()
				missing = append(missing, rp.Index)
				mu.Unlock()
			}
		}
		sum, err := Campaign(cfg, "gcc", sites, InjectOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if resume != (sum.Resumed == len(sites)) {
			t.Fatalf("resume=%v: %d of %d runs resumed", resume, sum.Resumed, len(sites))
		}
		if len(missing) > 0 {
			t.Errorf("resume=%v: runs %v were reported before their record reached the journal", resume, missing)
		}
	}
}

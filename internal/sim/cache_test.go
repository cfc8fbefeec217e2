package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"testing"

	"blackjack/internal/fault"
	"blackjack/internal/isa"
	"blackjack/internal/obs"
	"blackjack/internal/pipeline"
	"blackjack/internal/prog"
	"blackjack/internal/runcache"
)

func testStore(t *testing.T) *runcache.Store {
	t.Helper()
	s, err := runcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// A cached single run must be indistinguishable from a live one, and the
// second invocation must be a pure hit.
func TestRunProgramCacheHitIdentical(t *testing.T) {
	cfg := Default(pipeline.ModeBlackJack, 3000)
	cfg.Cache = testStore(t)
	cold, err := Run(cfg, "gcc")
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run(cfg, "gcc")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("cached run differs from live run:\nlive %+v\nwarm %+v", cold, warm)
	}
	st := cfg.Cache.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1/1", st.Hits, st.Misses)
	}
}

// A campaign cell's identity excludes the surrounding site list, so a cell
// cached by one campaign is a hit in a different campaign containing the
// same site — the property that makes sweeps incremental (a one-parameter
// edit re-executes only the affected cells).
func TestCampaignCellSharedAcrossSiteLists(t *testing.T) {
	shared := fault.Site{Class: fault.BackendWay, Unit: isa.UnitIntALU, Way: 0, BitMask: 1 << 9}
	extra := fault.Site{Class: fault.FrontendWay, Way: 1, Field: fault.FieldRs2}
	cfg := Default(pipeline.ModeBlackJack, 3000)
	cfg.Cache = testStore(t)
	first, err := Campaign(cfg, "gcc", []fault.Site{shared}, InjectOptions{SplitPayload: true})
	if err != nil {
		t.Fatal(err)
	}
	second, err := Campaign(cfg, "gcc", []fault.Site{shared, extra}, InjectOptions{SplitPayload: true})
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheHits != 1 {
		t.Errorf("second campaign reports %d cache hits, want 1 (the shared site)", second.CacheHits)
	}
	if !reflect.DeepEqual(first.Results[0], second.Results[0]) {
		t.Error("shared cell differs between the two campaigns")
	}
}

// An injection with a different budget, mode, or site must never alias a
// cached entry: each parameter is part of the identity.
func TestCacheIdentityDiscriminates(t *testing.T) {
	site := fault.Site{Class: fault.BackendWay, Unit: isa.UnitIntALU, Way: 0, BitMask: 1 << 9}
	cfg := Default(pipeline.ModeBlackJack, 3000)
	cfg.Cache = testStore(t)
	if _, err := Inject(cfg, "gcc", site, InjectOptions{}); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.MaxInstructions = 2000
	if _, err := Inject(other, "gcc", site, InjectOptions{}); err != nil {
		t.Fatal(err)
	}
	st := cfg.Cache.Stats()
	if st.Hits != 0 || st.Misses != 2 {
		t.Errorf("stats = %d hits / %d misses, want 0/2 (distinct budgets must not alias)", st.Hits, st.Misses)
	}
}

// Two sites differing only in fields Site.String's human label drops
// (trigger gates, duty cycles) must never alias one cache entry: identity
// encodes the site's canonical JSON form, not its display label.
// Regression test — %+v formatting used the Stringer, collapsing every
// trigger-gated latent variant of a way onto a single entry.
func TestCacheIdentityIncludesStringerDroppedFields(t *testing.T) {
	a := fault.Site{Class: fault.BackendWay, Unit: isa.UnitMem, Way: 0, BitMask: 1 << 8, TriggerMask: 0xff, TriggerValue: 0x05}
	b := a
	b.TriggerValue = 0x06
	cfg := Default(pipeline.ModeBlackJack, 3000)
	cfg.Cache = testStore(t)
	if _, err := Inject(cfg, "gcc", a, InjectOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Inject(cfg, "gcc", b, InjectOptions{}); err != nil {
		t.Fatal(err)
	}
	st := cfg.Cache.Stats()
	if st.Hits != 0 || st.Misses != 2 {
		t.Errorf("stats = %d hits / %d misses, want 0/2 (distinct trigger values must not alias)", st.Hits, st.Misses)
	}
}

// Runs with a tracer or metrics registry attached want live pipeline
// internals; they must bypass the cache in both directions.
func TestTraceAndMetricsRunsBypassCache(t *testing.T) {
	cfg := Default(pipeline.ModeBlackJack, 3000)
	cfg.Cache = testStore(t)
	if _, err := Run(cfg, "gcc"); err != nil { // fill
		t.Fatal(err)
	}
	cfg.Metrics = obs.NewRegistry()
	if _, err := Run(cfg, "gcc"); err != nil {
		t.Fatal(err)
	}
	st := cfg.Cache.Stats()
	if st.Hits != 0 {
		t.Errorf("metrics run hit the cache (%d hits); it must execute live", st.Hits)
	}
}

// The program fingerprint is part of every run-cache and journal key, so
// its values are pinned: a change to how it is computed must not move a
// key. Streams ending just before, on and just after a hash-buffer
// boundary must hash as writing one word at a time does.
func TestProgramFingerprintPinned(t *testing.T) {
	for bench, want := range map[string]string{"gcc": "23d79b957142e8e2", "swim": "c80091ea0b7df4b4"} {
		if got := programFingerprint(prog.MustBenchmark(bench)); got != want {
			t.Errorf("%s fingerprint %s, pinned %s", bench, got, want)
		}
	}
	wordwise := func(p *isa.Program) string {
		h := sha256.New()
		word := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
		word(uint64(len(p.Code)))
		for _, in := range p.Code {
			for _, v := range []uint64{uint64(in.Op), uint64(in.Rd), uint64(in.Rs1), uint64(in.Rs2), uint64(in.Imm)} {
				word(v)
			}
		}
		word(uint64(p.DataSize))
		word(uint64(len(p.Init)))
		for _, v := range p.Init {
			word(v)
		}
		return hex.EncodeToString(h.Sum(nil))[:16]
	}
	code := prog.MustBenchmark("gcc").Code[:2]
	for _, words := range []int{127, 128, 129, 256, 1000} {
		p := &isa.Program{Code: code, DataSize: 8 * words}
		for i := range words - 13 { // 3 length words and 2 instructions of 5
			p.Init = append(p.Init, uint64(i)*0x9E3779B97F4A7C15)
		}
		if got, want := programFingerprint(p), wordwise(p); got != want {
			t.Errorf("%d-word stream: fingerprint %s, word at a time %s", words, got, want)
		}
	}
}

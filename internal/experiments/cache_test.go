package experiments

import (
	"testing"

	"blackjack/internal/runcache"
)

// A warm Ext-A sweep must render a table byte-identical to the cold sweep's,
// with every campaign cell served from the cache — the incremental-sweep
// contract the run cache exists to provide.
func TestExtASweepWarmCacheByteIdenticalTable(t *testing.T) {
	cache, err := runcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := smallOpts("gcc")
	opts.MaxInstructions = 3000
	opts.Cache = cache

	cold, err := ExtAFaultInjection(opts, "gcc")
	if err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Hits != 0 || st.Puts == 0 {
		t.Fatalf("cold sweep: %d hits, %d puts; want 0 hits and a filled cache", st.Hits, st.Puts)
	}

	warm, err := ExtAFaultInjection(opts, "gcc")
	if err != nil {
		t.Fatal(err)
	}
	st = cache.Stats()
	if st.Hits == 0 {
		t.Fatal("warm sweep served no cells from the cache")
	}
	coldTable := ExtATable(cold, "gcc").String()
	warmTable := ExtATable(warm, "gcc").String()
	if coldTable != warmTable {
		t.Errorf("warm table differs from cold:\ncold:\n%s\nwarm:\n%s", coldTable, warmTable)
	}

	// Sampled verification over the warm entries must find zero divergences.
	opts.CacheVerify = 1
	if _, err := ExtAFaultInjection(opts, "gcc"); err != nil {
		t.Fatal(err)
	}
	st = cache.Stats()
	if st.VerifyRuns == 0 {
		t.Error("verification pass recomputed no hits")
	}
	if st.VerifyDivergences != 0 {
		t.Errorf("verification found %d divergences, want 0", st.VerifyDivergences)
	}
}

// Editing one sweep parameter must re-execute only the affected cells: the
// unchanged instruction budget's cells stay hits when a second budget's
// sweep fills alongside them.
func TestIncrementalSweepOneParameterEdit(t *testing.T) {
	cache, err := runcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := smallOpts("gcc")
	opts.MaxInstructions = 3000
	opts.Cache = cache
	if _, err := ExtAFaultInjection(opts, "gcc"); err != nil {
		t.Fatal(err)
	}
	filled := cache.Stats().Puts

	// The edited sweep shares no cells (budget is part of every identity)…
	edited := opts
	edited.MaxInstructions = 2500
	if _, err := ExtAFaultInjection(edited, "gcc"); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Hits != 0 {
		t.Errorf("edited sweep hit %d cells of the original; a changed budget must miss", st.Hits)
	}
	if st.Puts <= filled {
		t.Error("edited sweep filled no new cells")
	}

	// …and re-running the original sweep is fully warm again.
	if _, err := ExtAFaultInjection(opts, "gcc"); err != nil {
		t.Fatal(err)
	}
	if got := cache.Stats().Hits; got == 0 {
		t.Error("original sweep no longer warm after the edited sweep ran")
	}
}

package experiments

import (
	"bytes"
	"testing"
)

// renderAll serializes every figure and table a suite derives, so two suites
// can be compared byte-for-byte.
func renderAll(t *testing.T, s *Suite) string {
	t.Helper()
	var buf bytes.Buffer
	s.Figure4aTable().Render(&buf)
	s.Figure4bTable().Render(&buf)
	s.Figure5Table().Render(&buf)
	s.Figure6Table().Render(&buf)
	s.Figure7Table().Render(&buf)
	s.HeadlineTable().Render(&buf)
	s.ExtBTable().Render(&buf)
	return buf.String()
}

// The parallel fan-out must be invisible in the output: the same suite run
// with one worker and with eight workers has to produce byte-identical
// figures and tables.
func TestRunSuiteDeterministicAcrossWorkerCounts(t *testing.T) {
	opts := smallOpts("gzip", "equake")
	opts.MaxInstructions = 3000

	opts.Parallel = 1
	serial, err := RunSuite(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallel = 8
	fanned, err := RunSuite(opts)
	if err != nil {
		t.Fatal(err)
	}

	a, b := renderAll(t, serial), renderAll(t, fanned)
	if a != b {
		t.Errorf("suite output differs between Parallel=1 and Parallel=8:\n--- serial ---\n%s\n--- parallel ---\n%s", a, b)
	}
}

// ExtH's per-run seeds are derived from the (benchmark, offset) identity, not
// from shared mutable state, so its table must also be independent of the
// worker count.
func TestExtHDeterministicAcrossWorkerCounts(t *testing.T) {
	opts := smallOpts("gzip", "equake")
	opts.MaxInstructions = 3000
	offsets := []uint64{0, 5000}

	render := func(par int) string {
		opts.Parallel = par
		rows, err := ExtHSeedRobustness(opts, offsets)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		ExtHTable(rows, opts.Benchmarks).Render(&buf)
		return buf.String()
	}

	if a, b := render(1), render(8); a != b {
		t.Errorf("ExtH output differs between Parallel=1 and Parallel=8:\n--- serial ---\n%s\n--- parallel ---\n%s", a, b)
	}
}

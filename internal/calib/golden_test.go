// Golden-fixture rendering tests: a fixed synthetic report exercising every
// verdict and band shape must render byte-identically to the committed
// fixtures, in both text and JSON. Regenerate after an intentional format
// change with
//
//	go test ./internal/calib/ -run Golden -update
//
// and review the fixture diff like any other code change.
package calib

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden fixtures")

// goldenReport evaluates a fixed spec over fixed measurements: one PASS per
// band shape, one DRIFT, one out-of-band FAIL, and one unmeasured FAIL, so
// the fixtures pin the rendering of every verdict and every label form.
func goldenReport() *Report {
	spec := Spec{
		Name: "golden spec",
		Claims: []Claim{
			{ID: "cov.abs", Figure: "Fig. 1", Metric: "cov", Desc: "two-sided percent band",
				Paper: "97", Band: AbsBand(0.97, 0.02, 0.04), Unit: Percent},
			{ID: "cost.floor", Figure: "Fig. 2", Metric: "cost", Desc: "one-sided floor",
				Paper: ">= 90", Band: AtLeast(0.90, 0.85), Unit: Percent},
			{ID: "noise.ceil", Figure: "Fig. 2", Metric: "noise", Desc: "one-sided ceiling, drifting",
				Paper: "~1", Band: AtMost(0.01, 0.03), Unit: Percent},
			{ID: "queue.mean", Figure: "Tbl. 1", Metric: "queue", Desc: "scalar range, failing",
				Paper: "n/a", Band: RangeBand(10, 20, 5, 25), Unit: Scalar},
			{ID: "gap.points", Figure: "Fig. 3", Metric: "missing", Desc: "never measured",
				Paper: "0.5", Band: AtLeast(0, -0.01), Unit: Points},
		},
	}
	return spec.Evaluate(Measurements{
		"cov":   0.961, // PASS, inside [95, 99]
		"cost":  0.93,  // PASS, above the floor
		"noise": 0.02,  // DRIFT, between 1% and 3%
		"queue": 42,    // FAIL, beyond the drift ceiling
	})
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from fixture; regenerate with -update if intentional.\ngot:\n%s\nwant:\n%s",
			path, got, want)
	}
}

func TestGoldenReportRendering(t *testing.T) {
	rep := goldenReport()
	if pass, drift, fail := rep.Counts(); pass != 2 || drift != 1 || fail != 2 {
		t.Fatalf("golden report counts = %d/%d/%d, want 2/1/2", pass, drift, fail)
	}
	var text, js bytes.Buffer
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "golden", "report.txt"), text.Bytes())
	checkGolden(t, filepath.Join("testdata", "golden", "report.json"), js.Bytes())
}

// Rendering is deterministic: two renders of the same report are
// byte-identical (the property the golden fixtures and CI depend on).
func TestRenderingDeterministic(t *testing.T) {
	render := func() (string, string) {
		rep := goldenReport()
		var text, js bytes.Buffer
		if err := rep.WriteText(&text); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return text.String(), js.String()
	}
	t1, j1 := render()
	t2, j2 := render()
	if t1 != t2 || j1 != j2 {
		t.Error("report rendering is not deterministic")
	}
}

package experiments

import (
	"bytes"
	"testing"

	"blackjack/internal/calib"
	"blackjack/internal/sim"
)

// calibrateSmall runs the calibration harness on a deliberately tiny
// suite: the claims themselves won't all pass at this scale, but every
// metric the paper spec asks for must be measurable, and the report must
// render deterministically.
func calibrateSmall(t *testing.T) *calib.Report {
	t.Helper()
	rep, err := Calibrate(Options{
		Config:     sim.Config{MaxInstructions: 3000},
		Benchmarks: []string{"gcc", CalibrationBenchmark, "gzip"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestCalibrateMeasuresEveryClaim(t *testing.T) {
	rep := calibrateSmall(t)
	spec := calib.PaperSpec()
	if len(rep.Results) != len(spec.Claims) {
		t.Fatalf("report has %d results for %d claims", len(rep.Results), len(spec.Claims))
	}
	for _, res := range rep.Results {
		if !res.Measured {
			t.Errorf("claim %s (metric %s) was not measured", res.Claim.ID, res.Claim.Metric)
		}
	}
}

func TestCalibrateDeterministic(t *testing.T) {
	render := func() ([]byte, []byte) {
		rep := calibrateSmall(t)
		var text, js bytes.Buffer
		if err := rep.WriteText(&text); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return text.Bytes(), js.Bytes()
	}
	t1, j1 := render()
	t2, j2 := render()
	if !bytes.Equal(t1, t2) {
		t.Errorf("calibration text report not byte-deterministic:\n%s\nvs\n%s", t1, t2)
	}
	if !bytes.Equal(j1, j2) {
		t.Error("calibration JSON report not byte-deterministic")
	}
}

// Suite.Measurements must produce exactly the non-representative metric
// keys the paper spec consumes — no typo'd key can slip through unnoticed.
func TestSuiteMeasurementKeysMatchSpec(t *testing.T) {
	suite, err := RunSuite(Options{Config: sim.Config{MaxInstructions: 2000}, Benchmarks: []string{"gcc", "gzip"}})
	if err != nil {
		t.Fatal(err)
	}
	m := suite.Measurements()
	for _, c := range calib.PaperSpec().Claims {
		if len(c.Metric) >= len(calib.RepPrefix) && c.Metric[:len(calib.RepPrefix)] == calib.RepPrefix {
			continue // filled by the representative metrics run, not the suite
		}
		if _, ok := m[c.Metric]; !ok {
			t.Errorf("suite measurements missing spec metric %q", c.Metric)
		}
	}
}

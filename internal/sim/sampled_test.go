package sim

import (
	"testing"

	"blackjack/internal/pipeline"
	"blackjack/internal/prog"
)

// RunSampledProgram skips the fault-free functional prefix and must agree
// with RunProgram on everything the handoff leaves observable: a fault-free
// machine stays fault-free (zero detections, output matches the golden
// model) from any handoff point.
func TestRunSampledProgramFaultFree(t *testing.T) {
	cfg := Default(pipeline.ModeBlackJack, 4000)
	p, err := prog.Benchmark("gzip")
	if err != nil {
		t.Fatal(err)
	}
	for _, skip := range []int{0, 1000, 3999, 10_000} {
		res, err := RunSampledProgram(cfg, p, skip)
		if err != nil {
			t.Fatalf("skip %d: %v", skip, err)
		}
		if res.Stats.Detections != 0 {
			t.Errorf("skip %d: %d false detections", skip, res.Stats.Detections)
		}
	}
	if _, err := RunSampledProgram(cfg, p, -1); err == nil {
		t.Error("negative skip accepted")
	}
}

package sim

import (
	"errors"
	"testing"

	"blackjack/internal/fault"
	"blackjack/internal/pipeline"
	"blackjack/internal/prog"
)

// Campaign admission must reject invalid sites before any simulation runs,
// with the typed error preserved through the wrapping.
func TestCampaignRejectsInvalidSites(t *testing.T) {
	cfg := checkpointTestConfig(pipeline.ModeBlackJack, 200)
	bad := []fault.Site{
		{Class: fault.BackendWay, Unit: 0, Way: 0, BitMask: 1},
		{Class: fault.BackendWay, Unit: 0, Way: 1, Kind: fault.KindIntermittent}, // no duty period
	}
	if _, err := Campaign(cfg, "gcc", bad, InjectOptions{}); err == nil {
		t.Fatal("campaign accepted a contradictory site")
	} else {
		var se *fault.SiteError
		if !errors.As(err, &se) {
			t.Errorf("error %v does not unwrap to *fault.SiteError", err)
		}
	}
	p, err := prog.Benchmark("gcc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCampaignPlan(cfg, p, bad, InjectOptions{}); err == nil {
		t.Fatal("campaign plan accepted a contradictory site")
	}
}

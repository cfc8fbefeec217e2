package sim

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"blackjack/internal/fault"
	"blackjack/internal/pipeline"
	"blackjack/internal/prog"
)

var update = flag.Bool("update", false, "rewrite golden fixtures")

// goldenCampaignPath pins per-site campaign results. Regenerate it only from
// a commit whose results are known good, with
//
//	go test ./internal/sim/ -run GoldenCampaign -update
//
// never to make a change pass: the equivalence tests compare execution paths
// with each other, so a change that altered every path alike (a fault hook
// skipped where its site lives, say) would pass them and fail only here.
var goldenCampaignPath = filepath.Join("testdata", "golden", "campaign.txt")

// TestGoldenCampaignResults runs gcc over the four benchmark site lists, cold
// and again with fast-forward and checkpoints, and compares every site's
// outcome, activations, detections, cycles, detection latency, served path
// and reason with the committed fixture.
func TestGoldenCampaignResults(t *testing.T) {
	mc := pipeline.DefaultConfig()
	lists := []struct {
		name   string
		sites  []fault.Site
		instrs int
	}{
		{"latent", LatentSites(mc), 30_000},
		{"transient", TransientSites(mc, 200), 3_000},
		{"intermittent", IntermittentSites(mc, 64, 16, 75), 2_000},
		{"control-flow", ControlFlowSites(mc), 4_000},
	}
	plans := []struct {
		name string
		ckpt int64
		ff   bool
	}{
		{"cold", 0, false},
		{"ff+ckpt", 500, true},
	}
	p := prog.MustBenchmark("gcc")
	var out bytes.Buffer
	for _, l := range lists {
		for _, pn := range plans {
			cfg := Default(pipeline.ModeBlackJack, l.instrs)
			cfg.CheckpointInterval, cfg.FastForward = pn.ckpt, pn.ff
			progress := make([]RunProgress, len(l.sites))
			cfg.OnProgress = func(rp RunProgress) { progress[rp.Index] = rp }
			sum, err := CampaignProgram(cfg, p, l.sites, InjectOptions{SplitPayload: true})
			if err != nil {
				t.Fatalf("%s/%s: %v", l.name, pn.name, err)
			}
			fmt.Fprintf(&out, "# %s %s instrs=%d\n", l.name, pn.name, l.instrs)
			for i, r := range sum.Results {
				rp := progress[i]
				fmt.Fprintf(&out, "%2d %-40s %-10v act=%d det=%d cycles=%d lat=%d served=%s reason=%q\n",
					i, r.Site, r.Outcome, r.Activations, r.Detections, r.Cycles, r.DetectionLatency,
					rp.Served, rp.Reason)
			}
		}
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenCampaignPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenCampaignPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenCampaignPath)
	if err != nil {
		t.Fatalf("missing fixture (run with -update): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("campaign results drifted from %s:\n%s", goldenCampaignPath, lineDiff(want, out.Bytes()))
	}
}

// lineDiff lists the lines that differ between want and got.
func lineDiff(want, got []byte) string {
	w, g := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	var b bytes.Buffer
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl []byte
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if !bytes.Equal(wl, gl) {
			fmt.Fprintf(&b, "line %d\n- %s\n+ %s\n", i+1, wl, gl)
		}
	}
	return b.String()
}

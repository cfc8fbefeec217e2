package main

import (
	"os"
	"strings"

	"blackjack/internal/calib"
	"blackjack/internal/cli"
	"blackjack/internal/experiments"
)

// runCalibrate evaluates the paper calibration spec against a fresh suite
// run, rendering the per-claim verdict table to stdout (and JSON to
// jsonPath when set). DRIFT verdicts warn on stderr; any FAIL exits 5.
func runCalibrate(opts experiments.Options, jsonPath string) {
	cli.Logf("calibrating %d claims against %d benchmarks x 4 modes x %d instructions...",
		len(calib.PaperSpec().Claims), len(opts.Benchmarks), opts.Instructions)
	rep, err := experiments.Calibrate(opts)
	if err != nil {
		cli.Fatal(err)
	}
	rep.Table().Render(os.Stdout)
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			cli.Fatal(err)
		}
		if err := rep.WriteJSON(f); err != nil {
			cli.Fatal(err)
		}
		if err := f.Close(); err != nil {
			cli.Fatal(err)
		}
		cli.Logf("wrote calibration report to %s", jsonPath)
	}
	if drifting := rep.Drifting(); len(drifting) > 0 {
		cli.Logf("calibration drift on %s", strings.Join(drifting, ", "))
	}
	if rep.Failed() {
		cli.Exitf(cli.ExitFail, "calibration FAILED")
	}
}

// Performance sweep: the mechanics of BlackJack's slowdown.
//
// The paper decomposes BlackJack's cost over SRT into (a) the
// one-packet-per-cycle trailing fetch (SRT -> BlackJack-NS) and (b)
// safe-shuffle's packet splitting and NOPs (BlackJack-NS -> BlackJack), and
// discusses how the slack couples the threads. This example reproduces both:
// a mode ladder on one benchmark, then a slack sweep.
package main

import (
	"fmt"
	"log"

	"blackjack"
)

func main() {
	const (
		bench  = "sixtrack" // highest IPC: the most expensive to protect
		budget = 60_000
	)

	rs, err := blackjack.RunAllModes(blackjack.DefaultConfig(blackjack.ModeSingle, budget), bench)
	if err != nil {
		log.Fatal(err)
	}
	single := rs[blackjack.ModeSingle]
	fmt.Printf("== Mode ladder on %s ==\n", bench)
	fmt.Printf("%-13s %8s %12s %10s\n", "mode", "cycles", "perf-vs-1T", "coverage")
	for _, mode := range []blackjack.Mode{
		blackjack.ModeSingle, blackjack.ModeSRT, blackjack.ModeBlackJackNS, blackjack.ModeBlackJack,
	} {
		r := rs[mode]
		cov := "-"
		if mode != blackjack.ModeSingle {
			cov = fmt.Sprintf("%.1f%%", 100*r.Stats.Coverage())
		}
		fmt.Printf("%-13s %8d %11.1f%% %10s\n", mode, r.Stats.Cycles, 100*r.NormalizedPerf(single), cov)
	}
	bj, ns := rs[blackjack.ModeBlackJack], rs[blackjack.ModeBlackJackNS]
	fmt.Printf("\nshuffle cost (BJ-NS -> BJ): %.1f%% — %d packet splits, %d NOPs\n",
		100*(1-bj.NormalizedPerf(ns)), bj.Stats.ShuffleSplits, bj.Stats.ShuffleNOPs)

	fmt.Println("\n== Slack sweep (BlackJack) ==")
	fmt.Printf("%-8s %12s %14s %16s\n", "slack", "perf-vs-1T", "coverage(%)", "tt-interf(%)")
	for _, slack := range []int{32, 128, 256, 512, 1024} {
		cfg := blackjack.DefaultConfig(blackjack.ModeBlackJack, budget)
		cfg.Machine.Slack = slack
		r, err := blackjack.Run(cfg, bench)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8d %11.1f%% %14.1f %16.2f\n", slack,
			100*r.NormalizedPerf(single), 100*r.Stats.Coverage(), 100*r.Stats.TTInterferenceFrac())
	}
	fmt.Println("\nA small slack leaves too little time for leading results to be ready")
	fmt.Println("when the trailing thread wants them; a huge slack just fills the")
	fmt.Println("queues. The paper's 256 sits on the flat part of the curve.")
}

// Command bjfuzz is the differential fuzzing and verification harness: it
// generates randomized-but-valid programs (adversarial shapes plus
// randomized workload profiles), runs each through the pipeline in every
// redundancy configuration, cross-checks the complete committed
// architectural state against the ISA golden model, enforces safe-shuffle
// and DTQ structural invariants during execution, and minimizes any failure
// into a replayable corpus seed. It can also run the fault-injection
// coverage matrix asserting every fault class × pipeline structure is
// exercised and detected (or explicitly benign).
//
// Usage:
//
//	bjfuzz -n 500                          # 500 programs, all five variants
//	bjfuzz -n 200 -variant blackjack       # one variant only
//	bjfuzz -matrix                         # fault-coverage matrix, all fault kinds
//	bjfuzz -matrix -fault-kind intermittent
//	bjfuzz -replay internal/diffcheck/testdata/corpus
//	bjfuzz -emit-corpus 8 -corpus-dir internal/diffcheck/testdata/corpus
//	bjfuzz -n 5000 -journal fuzz.journal   # crash-resumable session
//
// A fuzzing run with -journal survives crashes, SIGINT, and SIGTERM:
// re-running the same command with -resume skips every completed program (at
// any -parallel value, and even under a larger -n).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"blackjack"
	"blackjack/internal/cli"
	"blackjack/internal/diffcheck"
	"blackjack/internal/pipeline"
)

func main() {
	var (
		n        = flag.Int("n", 500, "number of random programs to check")
		seed     = flag.Uint64("seed", 1, "campaign seed (derives every program deterministically)")
		maxInstr = flag.Int("max-instr", 5000, "committed-instruction budget per run")
		variant  = flag.String("variant", "", "restrict to one variant: single, srt, blackjack-ns, blackjack, blackjack+merge (empty: all)")
		par      = flag.Int("parallel", 0, "worker count (0 = NumCPU; results identical at any value)")
		noShrink = flag.Bool("no-shrink", false, "skip delta-debugging minimization of failures")
		reproDir = flag.String("repro-dir", "", "write minimized failure reproducers into this directory as go-fuzz corpus files")

		matrix     = flag.Bool("matrix", false, "run the fault-injection coverage matrix instead of fuzzing")
		matrixMode = flag.String("matrix-mode", "blackjack", "machine mode for the coverage matrix (srt, blackjack-ns, blackjack)")
		faultKind  = flag.String("fault-kind", "", "restrict the coverage matrix to one fault kind: permanent, transient, intermittent, multi-bit, control-flow (empty: all)")

		replay     = flag.String("replay", "", "replay a corpus directory instead of fuzzing")
		emitCorpus = flag.Int("emit-corpus", 0, "write this many generator seeds as corpus files and exit")
		corpusDir  = flag.String("corpus-dir", "internal/diffcheck/testdata/corpus", "corpus directory for -emit-corpus")

		journal = cli.JournalFlags()
		out     = cli.MetricsOutputFlag()
	)
	cli.Parse("bjfuzz")
	defer cli.Cleanup()

	// A flag the chosen mode does not read would be silently ignored, so it
	// is refused; so is a second mode flag.
	mode, reads := "fuzz", "n seed max-instr variant parallel no-shrink repro-dir journal resume metrics-out"
	switch {
	case *matrix:
		mode, reads = "-matrix", "matrix matrix-mode fault-kind max-instr seed parallel"
	case *replay != "":
		mode, reads = "-replay", "replay max-instr"
	case *emitCorpus > 0:
		mode, reads = "-emit-corpus", "emit-corpus seed corpus-dir"
	}
	cli.RefuseUnread(mode, reads)

	switch mode {
	case "-matrix":
		runMatrix(*matrixMode, *faultKind, *maxInstr, *seed, *par)
	case "-replay":
		runReplay(*replay, *maxInstr)
	case "-emit-corpus":
		runEmit(*emitCorpus, *seed, *corpusDir)
	default:
		runFuzz(*n, *seed, *maxInstr, *variant, *par, !*noShrink, *reproDir, journal, out)
	}
}

func runFuzz(n int, seed uint64, maxInstr int, variantName string, par int, shrink bool, reproDir string, journal *cli.Journal, out *cli.Outputs) {
	// SIGTERM (the plain `kill` default) drains exactly like SIGINT:
	// completed programs flush to the journal, exit 130 with a resume hint.
	ctx, stop := cli.SignalContext()
	defer stop()
	opts := diffcheck.FuzzOptions{
		Programs: n,
		Seed:     seed,
		MaxInstr: maxInstr,
		Workers:  par,
		Shrink:   shrink,
		Ctx:      ctx,
	}
	if variantName != "" {
		v, err := diffcheck.VariantByName(variantName)
		if err != nil {
			cli.Fatal(err)
		}
		opts.Variant = &v
	}
	if path := journal.Prepare(""); path != "" {
		fj, err := diffcheck.OpenFuzzJournal(path, opts)
		if err != nil {
			cli.Fatal(err)
		}
		defer fj.Close()
		opts.Journal = fj
	}
	sum, err := diffcheck.Fuzz(opts)
	if err != nil {
		cli.Fatal(err)
	}
	if sum.Resumed > 0 {
		cli.Logf("%d programs resumed from journal, %d executed", sum.Resumed, sum.Programs-sum.Resumed)
	}
	if err := diffcheck.WriteFuzzSummary(os.Stdout, sum); err != nil {
		cli.Fatal(err)
	}
	if out.Metrics != "" {
		// The summary as registry counters, so a CI run's fuzz volume is
		// inspectable with the same tooling as simulator metrics.
		reg := blackjack.NewMetrics()
		reg.Counter("fuzz.programs").Add(uint64(sum.Programs))
		reg.Counter("fuzz.runs").Add(uint64(sum.Runs))
		reg.Counter("fuzz.shuffles").Add(uint64(sum.Shuffles))
		reg.Counter("fuzz.dtq_entries").Add(uint64(sum.Entries))
		reg.Counter("fuzz.failures").Add(uint64(len(sum.Failures)))
		out.WriteMetrics(reg, nil)
		fmt.Printf("bjfuzz: wrote metrics to %s\n", out.Metrics)
	}
	if !sum.Failed() {
		return
	}
	for _, f := range sum.Failures {
		if f.Encoded == nil || reproDir == "" {
			continue
		}
		if err := os.MkdirAll(reproDir, 0o755); err != nil {
			cli.Fatal(err)
		}
		path := filepath.Join(reproDir, fmt.Sprintf("fail-%#x", f.Seed))
		if err := diffcheck.WriteCorpusFile(path, f.Encoded); err != nil {
			cli.Fatal(err)
		}
		fmt.Printf("bjfuzz: program %d reproducer written to %s\n", f.Index, path)
	}
	cli.Exit(cli.ExitError)
}

func runMatrix(modeName, kindName string, maxInstr int, seed uint64, par int) {
	mode, err := blackjack.ParseMode(modeName)
	if err != nil {
		cli.Fatal(err)
	}
	ctx, stop := cli.SignalContext()
	defer stop()
	cfg := blackjack.DefaultConfig(mode, maxInstr)
	cfg.Parallel, cfg.Ctx = par, ctx
	opts := diffcheck.MatrixOptions{Config: cfg, Seed: seed}
	if kindName != "" {
		kind, err := blackjack.ParseFaultKind(kindName)
		if err != nil {
			cli.Fatal(err)
		}
		opts.Kinds = []blackjack.FaultKind{kind}
	}
	m, err := diffcheck.CoverageMatrix(opts)
	if err != nil {
		cli.Fatal(err)
	}
	fmt.Print(m)
	if !m.OK() {
		for _, p := range m.Problems() {
			fmt.Printf("PROBLEM: %s\n", p)
		}
		cli.Exit(cli.ExitError)
	}
	fmt.Println("coverage matrix: every fault class x structure exercised; no silent corruption")
}

func runReplay(dir string, maxInstr int) {
	seeds, err := diffcheck.ReadCorpusDir(dir)
	if err != nil {
		cli.Fatal(err)
	}
	cfg := pipeline.DefaultConfig()
	bad := 0
	for name, data := range seeds {
		p := diffcheck.DecodeProgram(data)
		rep := diffcheck.CheckProgram(cfg, p, maxInstr)
		for _, d := range rep.Divergences {
			fmt.Printf("%s: %v\n", name, d)
			bad++
		}
	}
	fmt.Printf("bjfuzz: replayed %d corpus seeds, %d divergences\n", len(seeds), bad)
	if bad > 0 {
		cli.Exit(cli.ExitError)
	}
}

func runEmit(n int, seed uint64, dir string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		cli.Fatal(err)
	}
	written := 0
	for i := 0; written < n; i++ {
		p, source, err := diffcheck.GenerateProgram(seed, i)
		if err != nil {
			cli.Fatal(err)
		}
		enc, err := diffcheck.EncodeProgram(p)
		if err != nil || len(enc) > 16<<10 {
			continue // skip unencodable or oversized programs; seeds should stay mutation-friendly
		}
		path := filepath.Join(dir, fmt.Sprintf("seed-%02d-%s", i, source))
		if err := diffcheck.WriteCorpusFile(path, enc); err != nil {
			cli.Fatal(err)
		}
		written++
	}
	fmt.Printf("bjfuzz: wrote %d corpus seeds to %s\n", written, dir)
}

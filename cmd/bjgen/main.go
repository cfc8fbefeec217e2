// Command bjgen generates and inspects synthetic workload programs: static
// instruction mix, a disassembly window, and a quick functional run on the
// golden model.
//
// Usage:
//
//	bjgen -bench equake -disasm 40
//	bjgen -list
package main

import (
	"flag"
	"fmt"

	"blackjack"
	"blackjack/internal/cli"
	"blackjack/internal/isa"
)

func main() {
	var (
		bench  = flag.String("bench", "gzip", "benchmark name")
		disasm = flag.Int("disasm", 0, "print the first N instructions")
		run    = flag.Int("run", 50_000, "functionally execute N instructions on the golden model")
		list   = flag.Bool("list", false, "list benchmarks and exit")
		out    = cli.MetricsOutputFlag()
	)
	cli.Parse("bjgen")
	defer cli.Cleanup()

	if *list {
		for _, b := range blackjack.Benchmarks() {
			prof, _ := blackjack.BenchmarkProfile(b)
			fmt.Printf("%-9s streams=%d chain=%.2f ws=%dKB randload=%.2f branchEvery=%d\n",
				b, prof.Streams, prof.ChainFrac, prof.WorkingSetKB, prof.RandLoadFrac, prof.BranchEvery)
		}
		return
	}

	// SIGINT and SIGTERM behave identically: bjgen finishes the phase in
	// flight, skips the remaining ones, and exits 130. Phases are short, so a
	// checkpoint between each is enough for a prompt, clean stop.
	ctx, stopSignals := cli.SignalContext()
	defer stopSignals()
	checkpoint := func() {
		if err := ctx.Err(); err != nil {
			cli.Fatal(err)
		}
	}

	p, err := blackjack.BenchmarkProgram(*bench)
	if err != nil {
		cli.Fatal(err)
	}
	fmt.Printf("benchmark %s: %d static instructions, %d KB data segment\n",
		p.Name, len(p.Code), p.DataSize/1024)

	mix := map[isa.UnitClass]int{}
	var loads, stores, branches int
	for _, in := range p.Code {
		mix[in.Class()]++
		switch {
		case in.IsLoad():
			loads++
		case in.IsStore():
			stores++
		case in.IsBranch():
			branches++
		}
	}
	fmt.Printf("static mix: ")
	for cls := isa.UnitClass(0); cls < isa.NumUnitClasses; cls++ {
		fmt.Printf("%s=%.1f%% ", cls, 100*float64(mix[cls])/float64(len(p.Code)))
	}
	fmt.Printf("\nloads=%.1f%% stores=%.1f%% branches=%.1f%%\n",
		100*float64(loads)/float64(len(p.Code)),
		100*float64(stores)/float64(len(p.Code)),
		100*float64(branches)/float64(len(p.Code)))

	if *disasm > 0 {
		nd := min(*disasm, len(p.Code))
		for i := 0; i < nd; i++ {
			fmt.Printf("%5d: %s\n", i, p.Code[i])
		}
	}

	var reg *blackjack.Metrics
	if out.Metrics != "" {
		reg = blackjack.NewMetrics()
		reg.Counter("gen.static_instructions").Add(uint64(len(p.Code)))
		reg.Counter("gen.data_bytes").Add(uint64(p.DataSize))
		for cls := isa.UnitClass(0); cls < isa.NumUnitClasses; cls++ {
			reg.Counter(fmt.Sprintf("gen.class.%v", cls)).Add(uint64(mix[cls]))
		}
		reg.Counter("gen.loads").Add(uint64(loads))
		reg.Counter("gen.stores").Add(uint64(stores))
		reg.Counter("gen.branches").Add(uint64(branches))
	}

	checkpoint()
	if *run > 0 {
		m, err := isa.NewMachine(p)
		if err != nil {
			cli.Fatal(err)
		}
		got := m.Run(*run)
		fmt.Printf("golden run: %d instructions, %d stores, signature %#x\n",
			got, m.Stores(), m.StoreSignature())
		if reg != nil {
			reg.Counter("golden.instructions").Add(uint64(got))
			reg.Counter("golden.stores").Add(uint64(m.Stores()))
		}
	}

	checkpoint()
	if reg != nil {
		out.WriteMetrics(reg, nil)
		fmt.Printf("metrics written to %s\n", out.Metrics)
	}
}

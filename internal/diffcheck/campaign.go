package diffcheck

import (
	"context"
	"fmt"
	"io"

	"blackjack/internal/isa"
	"blackjack/internal/parallel"
	"blackjack/internal/pipeline"
	"blackjack/internal/prog"
)

// FuzzOptions configures a differential fuzzing campaign.
type FuzzOptions struct {
	// Machine is the core configuration (zero value selects Table 1).
	Machine pipeline.Config
	// Programs is the number of random programs to check (default 100).
	Programs int
	// Seed makes the whole campaign deterministic; per-program seeds derive
	// from it via splitmix, so campaigns with different Programs counts agree
	// on their common prefix.
	Seed uint64
	// MaxInstr is the leading-thread committed-instruction budget per run
	// (default 5000).
	MaxInstr int
	// Workers bounds the fan-out (<= 0 selects runtime.NumCPU()); results are
	// deterministic at every worker count.
	Workers int
	// Variant, when non-nil, restricts checking to one machine variant
	// instead of all five.
	Variant *Variant
	// Shrink minimizes failing programs via delta debugging (on by default
	// in the CLI; costs extra runs per failure).
	Shrink bool
	// ShrinkTests bounds candidate evaluations per minimization (<= 0
	// selects the Minimize default).
	ShrinkTests int
	// Ctx, when non-nil, cancels the campaign: in-flight programs finish,
	// no new ones start, completed records are flushed to the journal, and
	// the context's error is returned. nil means uncancellable.
	Ctx context.Context
	// Journal, when non-nil, records every completed program so an
	// interrupted campaign resumes where it stopped (see OpenFuzzJournal).
	// Resumed programs replay their journaled contribution instead of
	// re-running, and the summary is identical to an uninterrupted one.
	Journal *FuzzJournal
	// OnProgress, when non-nil, observes every completed program: live runs
	// and journal replays alike (resumed reports which). It is called from
	// worker goroutines, so it must be safe for concurrent use and should
	// not block; it cannot change results.
	OnProgress func(index int, resumed bool, divergences int)
}

func (o *FuzzOptions) withDefaults() FuzzOptions {
	out := *o
	if out.Machine.FetchWidth == 0 {
		out.Machine = pipeline.DefaultConfig()
	}
	if out.Programs <= 0 {
		out.Programs = 100
	}
	if out.MaxInstr <= 0 {
		out.MaxInstr = 5000
	}
	return out
}

// Failure is one program that diverged, with its minimized reproducer.
type Failure struct {
	Index       int
	Seed        uint64
	Source      string
	Program     *isa.Program
	Divergences []Divergence
	// Minimized is the delta-debugged reproducer (nil when shrinking was
	// off); Encoded is its corpus wire form (nil when the program exceeds
	// the encodable size).
	Minimized *isa.Program
	Encoded   []byte
}

// FuzzSummary aggregates a campaign.
type FuzzSummary struct {
	Programs int
	Runs     int    // variant runs performed
	Shuffles uint64 // shuffle invocations validated
	Entries  uint64 // DTQ entries through the invariant checker
	Resumed  int    // programs replayed from the journal, not re-run
	Failures []Failure
}

// Failed reports whether any program diverged.
func (s *FuzzSummary) Failed() bool { return len(s.Failures) > 0 }

// WriteFuzzSummary writes what a fuzz session found: the volume line, then
// the verdict, or every failing program with its divergences. bjfuzz and a
// served fuzz job both print through it.
func WriteFuzzSummary(w io.Writer, sum *FuzzSummary) error {
	if _, err := fmt.Fprintf(w, "bjfuzz: %d programs, %d variant runs, %d shuffle calls (%d DTQ entries) validated\n",
		sum.Programs, sum.Runs, sum.Shuffles, sum.Entries); err != nil {
		return err
	}
	if !sum.Failed() {
		_, err := fmt.Fprintln(w, "bjfuzz: zero oracle divergences, zero invariant violations")
		return err
	}
	for _, f := range sum.Failures {
		if _, err := fmt.Fprintf(w, "\nFAILURE program %d (%s, seed %#x, %d instructions):\n", f.Index, f.Source, f.Seed, len(f.Program.Code)); err != nil {
			return err
		}
		for _, d := range f.Divergences {
			if _, err := fmt.Fprintf(w, "  %v\n", d); err != nil {
				return err
			}
		}
		if f.Minimized != nil {
			if _, err := fmt.Fprintf(w, "  minimized to %d instructions\n", len(f.Minimized.Code)); err != nil {
				return err
			}
		}
	}
	return nil
}

// GenerateProgram builds the i-th campaign program from the campaign seed.
// The mix alternates adversarial instruction-level programs (two thirds)
// with profile-generator workloads under randomized knobs (one third), so
// the harness probes both hostile shapes and realistic steady-state code.
func GenerateProgram(campaignSeed uint64, i int) (*isa.Program, string, error) {
	seed := prog.DeriveSeed(campaignSeed, uint64(i))
	if i%3 == 2 {
		profile := prog.RandomProfile(fmt.Sprintf("rand-%d", i), seed)
		p, err := prog.Generate(profile)
		return p, "profile", err
	}
	p, err := prog.AdversarialProgram(seed)
	return p, "adversarial", err
}

// PadNops returns p with k NOPs prepended (branch targets shifted), a
// metamorphic transform that must not change the program's final state: the
// pipeline run of the padded program is cross-checked against the oracle
// like any other, but with every packet boundary shifted by k lanes.
func PadNops(p *isa.Program, k int) *isa.Program {
	q := *p
	q.Name = p.Name + "+nops"
	q.Code = make([]isa.Inst, 0, len(p.Code)+k)
	for i := 0; i < k; i++ {
		q.Code = append(q.Code, isa.Inst{Op: isa.OpNop})
	}
	for _, in := range p.Code {
		if in.IsBranch() {
			in.Imm += int64(k)
		}
		q.Code = append(q.Code, in)
	}
	return &q
}

// fuzzTestHook, when non-nil, runs inside every panic-isolation boundary:
// with the program index on the live check path, and with i == -1 per
// minimization candidate. Test seam for injecting harness faults.
var fuzzTestHook func(i int, p *isa.Program)

// checkOne runs one generated program through the configured checks. A
// panic anywhere in the checking machinery is recovered into a "panic"
// divergence on the harness pseudo-variant: the program is then a recorded
// failure (minimized like any other) instead of aborting the campaign.
func checkOne(o FuzzOptions, i int, p *isa.Program) (rec fuzzRecord) {
	defer func() {
		if r := recover(); r != nil {
			rec.Divergences = append(rec.Divergences, panicDivergence(r))
		}
	}()
	if fuzzTestHook != nil {
		fuzzTestHook(i, p)
	}
	var rep *ProgramReport
	if o.Variant != nil {
		rep = CheckVariantProgram(o.Machine, *o.Variant, p, o.MaxInstr)
	} else {
		rep = CheckProgram(o.Machine, p, o.MaxInstr)
	}
	rec.Divergences = rep.Divergences
	for _, vr := range rep.Variants {
		rec.Runs++
		rec.Shuffles += vr.Shuffles
		rec.Entries += vr.ShuffleEntries
	}
	// Metamorphic NOP padding on every fourth program, checked under
	// full BlackJack (the configuration most sensitive to packet shape).
	if i%4 == 0 && o.Variant == nil {
		padded := PadNops(p, 1+i%3)
		vr := RunVariant(o.Machine, Variant{Name: "blackjack+nops", Mode: pipeline.ModeBlackJack}, padded, o.MaxInstr)
		rec.Runs++
		rec.Shuffles += vr.Shuffles
		rec.Divergences = append(rec.Divergences, vr.Divergences...)
	}
	return rec
}

// shrinkOne minimizes a failing program. A candidate that panics the
// checker still reproduces the failure, so the predicate treats a panic as
// "fails" — delta debugging then minimizes panic-inducing programs too.
func shrinkOne(o FuzzOptions, p *isa.Program) *isa.Program {
	fails := func(cand *isa.Program) (failed bool) {
		defer func() {
			if r := recover(); r != nil {
				failed = true
			}
		}()
		if fuzzTestHook != nil {
			fuzzTestHook(-1, cand)
		}
		if o.Variant != nil {
			return CheckVariantProgram(o.Machine, *o.Variant, cand, o.MaxInstr).Failed()
		}
		return CheckProgram(o.Machine, cand, o.MaxInstr).Failed()
	}
	return Minimize(p, fails, o.ShrinkTests)
}

// Fuzz runs the campaign: generate programs, check every one under every
// variant (or the selected one) against the oracle and the structural
// invariants, run the NOP-padding metamorphic variant on a quarter of the
// programs, and minimize any failures. With a Journal attached, completed
// programs are durable and a re-run resumes instead of repeating them.
func Fuzz(opts FuzzOptions) (*FuzzSummary, error) {
	o := opts.withDefaults()

	type outcome struct {
		rec       fuzzRecord
		program   *isa.Program // nil on the replay path until a failure needs it
		minimized *isa.Program // live-path Minimize result; replay decodes rec.Minimized
		resumed   bool
	}

	results, err := parallel.MapCtx(o.Ctx, o.Workers, o.Programs, func(i int) (*outcome, error) {
		if o.Journal != nil {
			if rec, ok := o.Journal.Replayed(i); ok {
				if o.OnProgress != nil {
					o.OnProgress(i, true, len(rec.Divergences))
				}
				return &outcome{rec: rec, resumed: true}, nil
			}
		}
		p, source, err := GenerateProgram(o.Seed, i)
		if err != nil {
			return nil, fmt.Errorf("diffcheck: program %d: %w", i, err)
		}
		out := &outcome{program: p}
		out.rec = checkOne(o, i, p)
		out.rec.Seed = prog.DeriveSeed(o.Seed, uint64(i))
		out.rec.Source = source
		if len(out.rec.Divergences) > 0 && o.Shrink {
			out.minimized = shrinkOne(o, p)
			if enc, err := EncodeProgram(out.minimized); err == nil {
				out.rec.Minimized = enc
			}
		}
		if o.Journal != nil {
			if err := o.Journal.Append(i, out.rec); err != nil {
				return nil, fmt.Errorf("diffcheck: journal program %d: %w", i, err)
			}
		}
		if o.OnProgress != nil {
			o.OnProgress(i, false, len(out.rec.Divergences))
		}
		return out, nil
	})
	// Flush completed records, also on error, so a cancelled campaign
	// resumes cleanly.
	if o.Journal != nil {
		if serr := o.Journal.Sync(); serr != nil && err == nil {
			err = serr
		}
	}
	if err != nil {
		return nil, err
	}

	sum := &FuzzSummary{Programs: o.Programs}
	for i, out := range results {
		sum.Runs += out.rec.Runs
		sum.Shuffles += out.rec.Shuffles
		sum.Entries += out.rec.Entries
		if out.resumed {
			sum.Resumed++
		}
		if len(out.rec.Divergences) == 0 {
			continue
		}
		program := out.program
		if program == nil {
			// Replayed failure: programs are not journaled, they regenerate
			// deterministically from the campaign seed.
			program, _, _ = GenerateProgram(o.Seed, i)
		}
		f := Failure{
			Index:       i,
			Seed:        out.rec.Seed,
			Source:      out.rec.Source,
			Program:     program,
			Divergences: out.rec.Divergences,
			Minimized:   out.minimized,
			Encoded:     out.rec.Minimized,
		}
		if f.Minimized == nil && len(f.Encoded) > 0 {
			f.Minimized = DecodeProgram(f.Encoded)
		}
		sum.Failures = append(sum.Failures, f)
	}
	return sum, nil
}

package main

import (
	"errors"
	"math/rand/v2"
	"runtime/metrics"
	"time"

	"blackjack/internal/isa"
	"blackjack/internal/pipeline"
	"blackjack/internal/prog"
	"blackjack/internal/sim"
)

// suiteInstrs is the committed-instruction budget of one suite op.
const suiteInstrs = 10_000

// suiteWorkload is the Fig. 7 path: one op is one sim.RunProgram of a
// seeded benchmark program in one of the four modes, one worker, walking
// the 16 benchmarks x 4 modes matrix in a seeded order each round.
var suiteWorkload = &workload{
	name:          "suite",
	roundSeconds:  1.0,
	roundMultiple: 1,
	opsPerRound:   64,
	open:          openSuite,
}

type suite struct {
	seed  uint64
	progs []*isa.Program
	tr    *tracer
	d     *digest
	ops   int
	// allocs and kinstrs total the traced pipeline runs' heap allocations
	// and committed kilo-instructions.
	allocs, kinstrs float64
	sample          []metrics.Sample
}

// genPrograms generates one program per benchmark at the given
// prog.SeededBenchmark offset (offset 0 is the default suite).
func genPrograms(offset uint64, tr *tracer, parent int) ([]*isa.Program, error) {
	names := prog.BenchmarkNames()
	progs := make([]*isa.Program, len(names))
	for i, n := range names {
		sp := tr.start("prog.generate", -1, parent, 0)
		p, err := prog.SeededBenchmark(n, offset)
		tr.finish(sp, 0)
		if err != nil {
			return nil, err
		}
		progs[i] = p
	}
	return progs, nil
}

// openSuite generates the run's programs: the seed is their offset, so
// seed 0 runs the default suite.
func openSuite(seed uint64, _ int, tr *tracer, parent int) (instance, error) {
	progs, err := genPrograms(seed, tr, parent)
	if err != nil {
		return nil, err
	}
	return &suite{
		seed: seed, progs: progs, tr: tr, d: newDigest(),
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}},
	}, nil
}

func (s *suite) round(r int) ([]opRec, error) {
	cells := len(s.progs) * len(sim.AllModes)
	order := rand.New(rand.NewPCG(s.seed, uint64(r))).Perm(cells)
	recs := make([]opRec, 0, cells)
	for _, c := range order {
		b, mode := c/len(sim.AllModes), sim.AllModes[c%len(sim.AllModes)]
		recs = append(recs, s.op(b, mode))
	}
	return recs, nil
}

// op runs one cell and folds its statistics into the digest. Untraced, it
// is exactly sim.RunProgram; traced, it makes the same two layer calls
// RunProgram makes (the pipeline run, then the golden replay) so each gets
// its own span.
func (s *suite) op(b int, mode pipeline.Mode) opRec {
	cfg := sim.Default(mode, suiteInstrs)
	cfg.Parallel = 1
	p := s.progs[b]
	id := s.ops
	s.ops++
	rec := opRec{start: time.Now()}
	var st *pipeline.Stats
	var err error
	if s.tr == nil {
		var res *sim.Result
		if res, err = sim.RunProgram(cfg, p); err == nil {
			st = res.Stats
			if !res.OutputMatches {
				err = errors.New("output mismatch")
			}
		}
	} else {
		st, err = s.tracedOp(id, cfg, p)
	}
	rec.end = time.Now()
	rec.failed = err != nil
	s.d.add(uint64(b), uint64(mode))
	if st != nil {
		s.d.add(uint64(st.Cycles), st.Committed[0], st.Committed[1], st.ReleasedStores, st.StoreSignature, st.Detections)
	}
	return rec
}

func (s *suite) tracedOp(id int, cfg sim.Config, p *isa.Program) (*pipeline.Stats, error) {
	root := s.tr.start("op", id, -1, 0)
	defer s.tr.finish(root, 0)
	sp := s.tr.start("pipeline."+cfg.Mode.String(), id, root, 0)
	metrics.Read(s.sample)
	a0 := s.sample[0].Value.Uint64()
	m, err := pipeline.New(cfg.Machine, cfg.Mode, p)
	if err != nil {
		s.tr.finish(sp, 0)
		return nil, err
	}
	st := m.Run(cfg.MaxInstructions)
	metrics.Read(s.sample)
	s.tr.finish(sp, int64(st.Committed[0]))
	s.allocs += float64(s.sample[0].Value.Uint64() - a0)
	s.kinstrs += float64(st.Committed[0]) / 1000
	if st.Deadlocked || st.Interrupted {
		return st, errors.New("pipeline run did not complete")
	}
	vp := s.tr.start("isa.verify", id, root, 0)
	g, err := isa.AcquireMachine(p)
	if err != nil {
		s.tr.finish(vp, 0)
		return st, err
	}
	g.Run(int(st.Committed[0]))
	ok := st.StoreSignature == g.StoreSignature() && st.ReleasedStores == uint64(g.Stores())
	s.tr.finish(vp, int64(g.Retired()))
	isa.ReleaseMachine(g)
	if !ok {
		return st, errors.New("output mismatch")
	}
	return st, nil
}

func (s *suite) probe(int) error { return nil }

func (s *suite) digest() uint64 { return s.d.value() }

func (s *suite) layers(m map[string]float64) {
	if s.kinstrs > 0 {
		m["pipeline.allocs_per_kinstr"] = s.allocs / s.kinstrs
	}
}

func (s *suite) close() error { return nil }

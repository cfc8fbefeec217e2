package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"blackjack/internal/fault"
	"blackjack/internal/isa"
	"blackjack/internal/obs"
	"blackjack/internal/pipeline"
	"blackjack/internal/prog"
	"blackjack/internal/sim"
)

// campaignCheckpoint is the campaigns' warmup snapshot interval in cycles.
const campaignCheckpoint = 2500

// campaignWorkload: one op is one whole sim.CampaignProgram call (Parallel
// 1, no cache or journal) with fast-forward and checkpointing on, so
// warm-served, fast-forwarded, forked and cold runs all occur. A round is
// one op per benchmark, four per site list; every four rounds cover each
// benchmark x site list pair once (see plan).
var campaignWorkload = &workload{
	name:          "campaign",
	roundSeconds:  1.6,
	roundMultiple: 4,
	opsPerRound:   16,
	open:          openCampaign,
}

// siteList is one campaign shape; budgets are set so each list reaches its
// interesting paths (the latent list needs a long run to fast-forward).
type siteList struct {
	sites  []fault.Site
	instrs int
}

func campaignLists(mc pipeline.Config) []siteList {
	return []siteList{
		{sim.LatentSites(mc), 30_000},
		{sim.TransientSites(mc, 200), 6_000},
		{sim.IntermittentSites(mc, 64, 16, 75), 4_000},
		{sim.ControlFlowSites(mc), 8_000},
	}
}

type campaignOp struct {
	id, list, bench int
	prog            *isa.Program
}

type campaign struct {
	seed uint64
	// progs holds one program per benchmark for each four-round cycle, so
	// the ops' costs average over more program variants.
	progs [][]*isa.Program
	tiers []int // benchmark indexes, largest working set first
	lists []siteList
	tr    *tracer
	d     *digest
	ops   int
	paths map[string]int
	// skipped totals the traced runs' fast-forwarded instructions.
	skipped float64
	// last is the round just run, for its probes.
	last []campaignOp
}

// openCampaign generates every program of the run: cycle c of seed s uses
// prog.SeededBenchmark offset s*1024+c.
func openCampaign(seed uint64, rounds int, tr *tracer, parent int) (instance, error) {
	var progs [][]*isa.Program
	for cycle := 0; cycle < rounds/4; cycle++ {
		ps, err := genPrograms(seed*1024+uint64(cycle), tr, parent)
		if err != nil {
			return nil, err
		}
		progs = append(progs, ps)
	}
	tiers, err := workingSetTiers()
	if err != nil {
		return nil, err
	}
	return &campaign{
		seed: seed, progs: progs, tiers: tiers, lists: campaignLists(pipeline.DefaultConfig()),
		tr: tr, d: newDigest(), paths: map[string]int{},
	}, nil
}

// plan returns round r's ops: every benchmark once, each with one of the
// four site lists, so every round holds each list four times. The
// benchmarks are ranked by working set into tiers of four, and the seed
// deals each tier's members the four classes; class k takes list (k+r)%4.
// So every four rounds cover each benchmark x site list pair once, and
// every round runs each list on one member of each tier: rounds cost, and
// peak memory, alike whatever the seed. The ops run in a seeded order.
func (c *campaign) plan(r int) []campaignOp {
	cycle := r / 4
	progs := c.progs[cycle]
	rng := rand.New(rand.NewPCG(c.seed, uint64(cycle)))
	nl := len(c.lists)
	ops := make([]campaignOp, 0, len(progs))
	for t := 0; t < len(c.tiers); t += nl {
		for i, k := range rng.Perm(nl) {
			b := c.tiers[t+i]
			ops = append(ops, campaignOp{list: (k + r) % nl, bench: b, prog: progs[b]})
		}
	}
	rand.New(rand.NewPCG(c.seed^0xca3, uint64(r))).Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	for i := range ops {
		ops[i].id = c.ops
		c.ops++
	}
	return ops
}

// workingSetTiers returns the benchmark indexes, largest working set first.
func workingSetTiers() ([]int, error) {
	names := prog.BenchmarkNames()
	kb := make([]int, len(names))
	for i, n := range names {
		p, err := prog.ProfileByName(n)
		if err != nil {
			return nil, err
		}
		kb[i] = p.WorkingSetKB
	}
	order := make([]int, len(names))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return kb[order[a]] > kb[order[b]] })
	return order, nil
}

func (c *campaign) config(l siteList) sim.Config {
	cfg := sim.Default(pipeline.ModeBlackJack, l.instrs)
	cfg.Parallel = 1
	cfg.FastForward = true
	cfg.CheckpointInterval = campaignCheckpoint
	return cfg
}

var campaignOpts = sim.InjectOptions{SplitPayload: true}

func (c *campaign) round(r int) ([]opRec, error) {
	c.last = c.plan(r)
	recs := make([]opRec, 0, len(c.last))
	for _, op := range c.last {
		recs = append(recs, c.op(op))
	}
	return recs, nil
}

// op runs one campaign and checks it: no quarantined run, and the outcome
// counts sum to the site count. Traced, the gaps between OnProgress
// callbacks become spans named by the path that served each run; the first
// gap also holds the plan's lazy warmup, so it gets its own name.
func (c *campaign) op(op campaignOp) opRec {
	l := c.lists[op.list]
	cfg := c.config(l)
	paths := make([]int, len(pathNames)+1)
	root := c.tr.start("op", op.id, -1, 0)
	call := c.tr.start("sim.campaign", op.id, root, 0)
	var reg *obs.Registry
	last := time.Now()
	first := true
	cfg.OnProgress = func(p sim.RunProgress) {
		paths[pathIndex(p.Served)]++
		if c.tr == nil {
			return
		}
		now := time.Now()
		name := "sim.path." + p.Served
		if first {
			name, first = "sim.first_run", false
		}
		c.tr.record(name, op.id, call, 0, last, now, 1)
		last = now
	}
	if c.tr != nil {
		reg = obs.NewRegistry()
		cfg.Metrics = reg
	}
	rec := opRec{start: time.Now()}
	sum, err := sim.CampaignProgram(cfg, op.prog, l.sites, campaignOpts)
	rec.end = time.Now()
	c.tr.finish(call, 0)
	c.tr.finish(root, 0)
	if err == nil {
		err = checkCampaign(sum, len(l.sites))
	}
	rec.failed = err != nil
	if reg != nil {
		if h := reg.HistogramByName("campaign.ff.skipped_instrs"); h != nil {
			c.skipped += h.Sum()
		}
	}
	c.d.add(uint64(op.list), uint64(op.bench))
	for i, n := range paths {
		c.d.add(uint64(i), uint64(n))
		if n > 0 && i < len(pathNames) {
			c.paths[pathNames[i]] += n
		}
	}
	if sum != nil {
		for _, r := range sum.Results {
			c.d.add(uint64(r.Outcome), r.Activations, r.Detections, uint64(r.Cycles), uint64(r.DetectionLatency))
		}
	}
	return rec
}

func checkCampaign(sum *sim.CampaignSummary, sites int) error {
	if len(sum.Quarantined) > 0 {
		return fmt.Errorf("%d quarantined runs", len(sum.Quarantined))
	}
	total := 0
	for _, n := range sum.Counts {
		total += n
	}
	if total != sites {
		return fmt.Errorf("outcome counts sum to %d, want %d sites", total, sites)
	}
	return nil
}

// pathIndex maps a RunProgress.Served value to its pathNames slot; an
// unknown path lands in the spare last slot.
func pathIndex(served string) int {
	for i, n := range pathNames {
		if n == served {
			return i
		}
	}
	return len(pathNames)
}

// probe times, for each op of the round just run, the layer calls the
// campaign makes internally: the plan's warmup (sim.NewCampaignPlan), the
// golden oracle at the op's budget (isa.Trajectory), and a checkpointed
// pipeline run with its snapshots and one fork.
func (c *campaign) probe(int) error {
	for _, op := range c.last {
		l := c.lists[op.list]
		cfg := c.config(l)
		p := op.prog

		sp := c.tr.start("sim.plan_warmup", op.id, -1, 0)
		pl, err := sim.NewCampaignPlan(cfg, p, l.sites, campaignOpts)
		if err != nil {
			return err
		}
		c.tr.finish(sp, int64(pl.Checkpoints()))

		sp = c.tr.start("isa.oracle", op.id, -1, 0)
		traj := isa.NewTrajectory(p)
		a, err := traj.At(uint64(l.instrs))
		if err != nil {
			return err
		}
		if _, _, err := traj.SigAt(uint64(l.instrs)); err != nil {
			return err
		}
		c.tr.finish(sp, int64(a.Retired))

		run := c.tr.start("pipeline.checkpointed_run", op.id, -1, 0)
		m, err := pipeline.New(cfg.Machine, cfg.Mode, p)
		if err != nil {
			return err
		}
		var cp *pipeline.Checkpoint
		st := m.RunWithCheckpoints(l.instrs, campaignCheckpoint, func(live *pipeline.Machine) {
			s := c.tr.start("pipeline.snapshot", op.id, run, 0)
			cp = live.Snapshot()
			c.tr.finish(s, 1)
		})
		if cp == nil {
			return errors.New("checkpointed run took no snapshot")
		}
		fk := c.tr.start("pipeline.fork", op.id, run, 0)
		pipeline.Fork(cp)
		c.tr.finish(fk, 1)
		c.tr.finish(run, int64(st.Committed[0]))
	}
	return nil
}

func (c *campaign) digest() uint64 { return c.d.value() }

func (c *campaign) layers(m map[string]float64) {
	m["isa.ff_skipped_instrs"] = c.skipped
	for _, p := range pathNames {
		m["sim.path."+p+".runs"] = float64(c.paths[p])
	}
}

func (c *campaign) close() error { return nil }

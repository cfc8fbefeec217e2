// Command bjbench is the repository's end-to-end benchmark. It drives the
// simulator's layers from outside, through their public functions, on one
// of three closed-loop workloads, checks every operation's output, and
// prints one JSON result line:
//
//	bjbench --workload suite|campaign|serve --seed N --seconds S --trace 0|1
//
// Every run does identical work for a given seed and --seconds: the seed
// fixes the inputs and the operation order, --seconds fixes the number of
// rounds, each a full pass over the workload's operation mix. A host-speed
// reference kernel is timed at every round barrier and every timing is
// reported host-adjusted (see host.go). With --trace 1 the workload runs
// twice, untraced and then traced, and the result holds per-layer metrics
// derived from spans recorded around each layer call; the spans are also
// written as a Chrome trace. See README.md for the metric definitions.
package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"blackjack/internal/sim"
)

// setupRepeats is how many times a run builds its workload's set-up;
// setup_s is the median, the last set-up is the one measured.
const setupRepeats = 11

// minOps is the fewest ops a run makes, so that at least ten latency
// samples lie beyond the 90th percentile.
const minOps = 100

// instance is one set-up workload, ready to run rounds.
type instance interface {
	// round runs one full pass over the operation mix, returning one record
	// per op. An error aborts the run (a harness fault, not a failed op).
	round(r int) ([]opRec, error)
	// probe makes the traced run's extra layer calls for round r, outside
	// the round's timed wall.
	probe(r int) error
	// digest hashes every simulated statistic the run produced.
	digest() uint64
	// layers adds the per-layer counts only the instance can see.
	layers(m map[string]float64)
	close() error
}

// workload describes how to build and size one workload.
type workload struct {
	name string
	// roundSeconds is the nominal host-adjusted cost of one round; the
	// round count is --seconds divided by it, a whole multiple of
	// roundMultiple.
	roundSeconds  float64
	roundMultiple int
	opsPerRound   int
	// open builds the set-up: inputs generated from the seed for the given
	// number of rounds, plus any state the ops need. Spans of the set-up go
	// under parent.
	open func(seed uint64, rounds int, tr *tracer, parent int) (instance, error)
}

var workloads = map[string]*workload{
	"suite":    suiteWorkload,
	"campaign": campaignWorkload,
	"serve":    serveWorkload,
}

// rounds sizes a run: the same --seconds always gives the same work.
func (w *workload) rounds(seconds int) int {
	n := int(math.Round(float64(seconds) / w.roundSeconds))
	n = max(n, (minOps+w.opsPerRound-1)/w.opsPerRound)
	return (n + w.roundMultiple - 1) / w.roundMultiple * w.roundMultiple
}

// opRec is one op as the client saw it.
type opRec struct {
	start, end time.Time
	failed     bool
}

// pass is one measured run of a workload instance.
type pass struct {
	setupRaw, setupAdj float64
	attempted, failed  int
	latRaw, latAdj     []float64
	wallRaw, wallAdj   float64
	peaksMB            []float64 // each round's peak RSS
	digest             uint64
	layers             map[string]float64
}

func (p *pass) throughput(adjusted bool) float64 {
	ok := float64(p.attempted - p.failed)
	if adjusted {
		return ok / p.wallAdj
	}
	return ok / p.wallRaw
}

// measure sets the workload up and runs its rounds, taking a reference
// sample at every barrier. Each round's timings are scaled by the median of
// the samples at the two barriers around it.
func measure(w *workload, seed uint64, rounds int, h *host, tr *tracer) (*pass, error) {
	before := h.sample()
	var inst instance
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		// Each set-up starts from a collected heap, so none pays for
		// another's garbage.
		runtime.GC()
		t0 := time.Now()
		sp := tr.start("setup", -1, -1, 0)
		in, err := w.open(seed, rounds, tr, sp)
		tr.finish(sp, 0)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if k < setupRepeats-1 {
			if err := in.close(); err != nil {
				return nil, fmt.Errorf("set-up teardown: %w", err)
			}
			continue
		}
		inst = in
	}
	p, err := runRounds(inst, rounds, h, tr, before, setups)
	if cerr := inst.close(); cerr != nil && err == nil {
		err = fmt.Errorf("teardown: %w", cerr)
	}
	return p, err
}

func runRounds(inst instance, rounds int, h *host, tr *tracer, before []float64, setups []float64) (*pass, error) {
	prev := h.sample()
	p := &pass{setupRaw: median(setups)}
	p.setupAdj = p.setupRaw * refNominal / median(append(slices.Clone(before), prev...))
	type timed struct {
		ops   []opRec
		scale float64
	}
	var all []timed
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		ops, err := inst.round(r)
		wall := time.Since(t0).Seconds()
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		if tr != nil {
			if err := inst.probe(r); err != nil {
				return nil, fmt.Errorf("round %d probes: %w", r, err)
			}
		}
		p.peaksMB = append(p.peaksMB, roundPeakMB())
		next := h.sample()
		scale := refNominal / median(append(slices.Clone(prev), next...))
		prev = next
		p.wallRaw += wall
		p.wallAdj += wall * scale
		all = append(all, timed{ops, scale})
	}
	// A failed op misses every latency limit: it counts as taking the
	// whole run.
	for _, t := range all {
		for _, op := range t.ops {
			p.attempted++
			lat := op.end.Sub(op.start).Seconds()
			if op.failed {
				p.failed++
				p.latRaw = append(p.latRaw, p.wallRaw)
				p.latAdj = append(p.latAdj, p.wallAdj)
				continue
			}
			p.latRaw = append(p.latRaw, lat)
			p.latAdj = append(p.latAdj, lat*t.scale)
		}
	}
	p.digest = inst.digest()
	p.layers = map[string]float64{}
	inst.layers(p.layers)
	return p, nil
}

type metricDef struct{ name, unit string }

// endToEnd lists the untraced run's metrics, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"throughput", "1/s"},
	{"latency_p50_s", "s"},
	{"latency_p90_s", "s"},
}

// perLayer lists the traced run's metrics, in BENCHMARK.json order. Every
// workload prints all of them; a layer the workload does not reach reads 0.
var perLayer = []metricDef{
	{"prog.generate_s", "s"},
	{"isa.instr_per_s", "instr/s"},
	{"isa.verify_s", "s"},
	{"isa.oracle_s", "s"},
	{"isa.ff_skipped_instrs", "count"},
	{"pipeline.single.instr_per_s", "instr/s"},
	{"pipeline.srt.instr_per_s", "instr/s"},
	{"pipeline.blackjack-ns.instr_per_s", "instr/s"},
	{"pipeline.blackjack.instr_per_s", "instr/s"},
	{"pipeline.allocs_per_kinstr", "allocs/kinstr"},
	{"pipeline.snapshot_s", "s"},
	{"pipeline.fork_s", "s"},
	{"sim.plan_warmup_s", "s"},
	{"sim.plan_checkpoints", "count"},
	{"sim.path.cold.runs", "count"},
	{"sim.path.forked.runs", "count"},
	{"sim.path.warm.runs", "count"},
	{"sim.path.fast-forward.runs", "count"},
	{"sim.path.cache.runs", "count"},
	{"sim.path.journal.runs", "count"},
	{"sim.path.cold.run_s", "s"},
	{"sim.path.forked.run_s", "s"},
	{"sim.path.warm.run_s", "s"},
	{"sim.path.fast-forward.run_s", "s"},
	{"runcache.hits", "count"},
	{"runcache.misses", "count"},
	{"runcache.puts", "count"},
	{"runcache.hit_ratio", "ratio"},
	{"runcache.bytes", "B"},
	{"runcache.served_run_s", "s"},
	{"journal.append_sync_s", "s"},
	{"journal.records", "count"},
	{"serve.admit_s", "s"},
	{"serve.queue_wait_s", "s"},
	{"serve.exec_s", "s"},
	{"serve.result_s", "s"},
	{"serve.rejected", "count"},
	{"serve.requeued", "count"},
	{"host.ref_s", "s"},
	{"host.ref_flagged", "count"},
	{"raw.throughput", "1/s"},
	{"raw.latency_p50_s", "s"},
	{"raw.latency_p90_s", "s"},
	{"raw.setup_s", "s"},
	{"trace.overhead", "ratio"},
	{"trace.coverage", "ratio"},
	{"sim.stats_digest", "hash"},
}

// pathNames are the run sources sim.RunProgress.Served reports. The live
// paths have run-time metrics; a cache hit's time is runcache.served_run_s,
// and no workload resumes from a journal.
var (
	livePaths = []string{"cold", "forked", "warm", "fast-forward"}
	pathNames = append(livePaths, "cache", "journal")
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bjbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: suite, campaign or serve")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "nominal measured seconds; fixes the round count")
	trace := flag.Int("trace", 0, "1 runs untraced then traced and prints per-layer metrics")
	traceDir := flag.String("trace-dir", ".", "directory the traced run's Chrome trace is written to")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want suite, campaign or serve)", *name)
	}
	if *seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	// Every op is single-worker. One P keeps the runtime's own goroutines
	// (GC workers, the serve workload's HTTP side) on the core the op and
	// the reference kernel run on, so both see the same host speed.
	runtime.GOMAXPROCS(1)
	h := newHost()
	var res result
	var err error
	if *trace == 0 {
		res, err = endToEndRun(w, *seed, w.rounds(*seconds), h)
	} else {
		res, err = tracedRun(w, *seed, *seconds, h, filepath.Join(*traceDir, "trace-"+w.name+".json"))
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// endToEndRun measures the untraced workload and reports the end-to-end
// metrics, with the unadjusted figures on stderr for comparison.
func endToEndRun(w *workload, seed uint64, rounds int, h *host) (result, error) {
	p, err := measure(w, seed, rounds, h, nil)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "bjbench: %s seed=%d rounds=%d ops=%d digest=%#x raw: setup_s=%.6g throughput=%.6g latency_p50_s=%.6g latency_p90_s=%.6g ref_s=%.6g\n",
		w.name, seed, rounds, p.attempted, p.digest, p.setupRaw, p.throughput(false),
		percentile(p.latRaw, 0.5), percentile(p.latRaw, 0.9), median(h.all))
	vals := map[string]float64{
		"setup_s":       p.setupAdj,
		"peak_rss_mb":   mean(p.peaksMB),
		"throughput":    p.throughput(true),
		"latency_p50_s": percentile(p.latAdj, 0.5),
		"latency_p90_s": percentile(p.latAdj, 0.9),
	}
	return newResult(p, endToEnd, vals), nil
}

// tracedRun runs the workload untraced and then traced, each for half the
// rounds of an end-to-end run, and reports the per-layer metrics.
func tracedRun(w *workload, seed uint64, seconds int, h *host, tracePath string) (result, error) {
	rounds := w.rounds((seconds + 1) / 2)
	base, err := measure(w, seed, rounds, h, nil)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	p, err := measure(w, seed, rounds, h, tr)
	if err != nil {
		return result{}, err
	}
	if err := tr.writeChrome(tracePath, "bjbench "+w.name); err != nil {
		return result{}, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "bjbench: wrote %d spans to %s\n", len(tr.spans), tracePath)
	vals := layerValues(tr, p)
	vals["host.ref_s"] = median(h.all)
	vals["host.ref_flagged"] = float64(h.flagged)
	vals["raw.throughput"] = base.throughput(false)
	vals["raw.latency_p50_s"] = percentile(base.latRaw, 0.5)
	vals["raw.latency_p90_s"] = percentile(base.latRaw, 0.9)
	vals["raw.setup_s"] = base.setupRaw
	vals["trace.overhead"] = p.throughput(true) / base.throughput(true)
	vals["sim.stats_digest"] = float64(p.digest)
	res := newResult(p, perLayer, vals)
	res.Attempted += base.attempted
	res.Failed += base.failed
	if base.digest != p.digest {
		fmt.Fprintf(os.Stderr, "bjbench: traced digest %#x differs from untraced %#x\n", p.digest, base.digest)
		res.Correct = false
	}
	return res, nil
}

// layerValues reduces the traced run's spans to the per-layer metrics and
// merges in the instance's own counts.
func layerValues(tr *tracer, p *pass) map[string]float64 {
	t := tr.totals()
	vals := map[string]float64{}
	if s := t["setup"]; s != nil && t["prog.generate"] != nil {
		vals["prog.generate_s"] = t["prog.generate"].total.Seconds() / float64(s.count)
	}
	vals["isa.verify_s"] = t["isa.verify"].mean()
	vals["isa.oracle_s"] = t["isa.oracle"].mean()
	var isaInstrs int64
	var isaTime time.Duration
	for _, n := range []string{"isa.verify", "isa.oracle"} {
		if l := t[n]; l != nil {
			isaInstrs += l.n
			isaTime += l.total
		}
	}
	if isaTime > 0 {
		vals["isa.instr_per_s"] = float64(isaInstrs) / isaTime.Seconds()
	}
	for _, m := range sim.AllModes {
		vals["pipeline."+m.String()+".instr_per_s"] = t["pipeline."+m.String()].rate()
	}
	vals["pipeline.snapshot_s"] = t["pipeline.snapshot"].mean()
	vals["pipeline.fork_s"] = t["pipeline.fork"].mean()
	vals["sim.plan_warmup_s"] = t["sim.plan_warmup"].mean()
	if l := t["sim.plan_warmup"]; l != nil {
		vals["sim.plan_checkpoints"] = float64(l.n) / float64(l.count)
	}
	for _, path := range livePaths {
		vals["sim.path."+path+".run_s"] = t["sim.path."+path].mean()
	}
	vals["runcache.served_run_s"] = t["runcache.served"].mean()
	vals["journal.append_sync_s"] = t["journal.append_sync"].mean()
	for _, n := range []string{"admit", "queue_wait", "exec", "result"} {
		vals["serve."+n+"_s"] = t["serve."+n].mean()
	}
	if op := t["op"]; op != nil && op.total > 0 {
		vals["trace.coverage"] = 1 - op.self.Seconds()/op.total.Seconds()
	}
	for k, v := range p.layers {
		vals[k] = v
	}
	return vals
}

// newResult assembles the printed result; every listed metric is present.
func newResult(p *pass, defs []metricDef, vals map[string]float64) result {
	res := result{
		Correct:   p.failed == 0,
		Attempted: p.attempted,
		Failed:    p.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return res
}

// mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// median of xs (0 for none).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile is the nearest-rank q-quantile of xs (0 for none).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// digest folds simulated statistics into one number. It keeps 52 bits so
// the JSON value is exact.
type digest struct {
	h   hash.Hash64
	buf []byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) add(vs ...uint64) {
	d.buf = d.buf[:0]
	for _, v := range vs {
		d.buf = binary.LittleEndian.AppendUint64(d.buf, v)
	}
	d.h.Write(d.buf)
}

func (d *digest) addString(s string) {
	d.h.Write([]byte(s))
	d.h.Write([]byte{0})
}

func (d *digest) value() uint64 { return d.h.Sum64() & (1<<52 - 1) }

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"blackjack/internal/journal"
	"blackjack/internal/prog"
	"blackjack/internal/serve"
	"blackjack/internal/sim"
)

// serveInstrs is the instruction budget of a tenant's first pass over its
// benchmark x mode pairs; each further pass adds serveInstrsStep, so every
// new spec is distinct.
const (
	serveInstrs     = 2_000
	serveInstrsStep = 50
	// Per round, each tenant submits serveNew new specs, one per
	// working-set tier, and as many exact repeats of its own earlier ones.
	serveNew = 4
	// journalProbes is how many fsync'd journal appends the traced run
	// times after each round.
	journalProbes = 16
)

// serveWorkload: an in-process serve.Server (one executor slot, one run
// worker) behind a loopback HTTP listener, with fresh state and cache dirs.
// Two tenants each keep one job outstanding. One op is submit, then the
// event stream followed to done, then the result fetched. Half the jobs are
// new campaign specs (runcache Put, one fsync'd journal record per run),
// half exact repeats of the tenant's earlier specs (runcache Get).
var serveWorkload = &workload{
	name:          "serve",
	roundSeconds:  1.5,
	roundMultiple: 8,
	opsPerRound:   2 * 2 * serveNew,
	open:          openServe,
}

type serveOp struct {
	id    int
	spec  int // index into the tenant's specs
	isNew bool
}

// tenant is one closed-loop client with its own connection.
type tenant struct {
	name     string
	tid      int
	client   *http.Client
	specs    [][]byte // JSON bodies, in first-submission order
	results  [][]byte // first result of each spec
	ops      [][]serveOp
	d        *digest
	paths    map[string]int
	rejected int
	records  int
}

type serveBench struct {
	tr      *tracer
	dir     string
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	base    string
	tenants []*tenant
}

// openServe generates the run's job streams and every program they name,
// as the server will for each job, then starts the service on fresh state
// and cache dirs.
func openServe(seed uint64, rounds int, tr *tracer, parent int) (in instance, err error) {
	if _, err := genPrograms(0, tr, parent); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "bjbench-serve-")
	if err != nil {
		return nil, err
	}
	b := &serveBench{tr: tr, dir: dir}
	defer func() {
		if err != nil {
			b.close()
		}
	}()
	if b.tenants, err = serveStreams(seed, rounds); err != nil {
		return nil, err
	}
	b.srv, err = serve.New(serve.Options{
		StateDir:    filepath.Join(dir, "state"),
		CacheDir:    filepath.Join(dir, "cache"),
		Workers:     1,
		RunParallel: 1,
	})
	if err != nil {
		return nil, err
	}
	b.srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b.base = "http://" + ln.Addr().String()
	b.hs = &http.Server{Handler: b.srv.Handler()}
	b.served = make(chan error, 1)
	go func() { b.served <- b.hs.Serve(ln) }()
	// The service is up once it answers; this also opens each tenant's
	// connection.
	for _, tn := range b.tenants {
		if _, _, err := tn.do("GET", b.base+"/healthz", nil); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// serveStreams generates both tenants' job streams. The benchmarks are
// split between the tenants so no spec of one can hit the other's cache
// entries, which keeps every run's cache behavior fixed by the seed. Each
// tenant gets two benchmarks of every working-set tier, and every round
// each tenant submits one new spec per tier, so rounds cost alike whatever
// the seed; every eight rounds cover the tenant's benchmark x mode pairs
// once.
func serveStreams(seed uint64, rounds int) ([]*tenant, error) {
	tiers, err := workingSetTiers()
	if err != nil {
		return nil, err
	}
	names := prog.BenchmarkNames()
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	var own [2][]int // each tenant's benchmarks, two per tier in tier order
	for t := 0; t < len(tiers); t += 4 {
		p := rng.Perm(4)
		own[0] = append(own[0], tiers[t+p[0]], tiers[t+p[1]])
		own[1] = append(own[1], tiers[t+p[2]], tiers[t+p[3]])
	}
	var out []*tenant
	for t := range own {
		tn := &tenant{
			name: fmt.Sprintf("tenant-%d", t), tid: t, d: newDigest(), paths: map[string]int{},
			client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}},
		}
		// combos[k] holds the tenant's benchmark x mode pairs of tier k.
		combos := make([][][2]string, serveNew)
		for i, b := range own[t] {
			for _, m := range sim.AllModes {
				combos[i/2] = append(combos[i/2], [2]string{names[b], m.String()})
			}
		}
		for _, c := range combos {
			rng.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
		}
		for r := 0; r < rounds; r++ {
			// New specs and repeats alternate, tiers in a fixed order: the
			// two tenants' jobs meet in the queue alike whatever the seed.
			var ops []serveOp
			for _, c := range combos {
				spec, err := json.Marshal(map[string]any{
					"tenant": tn.name, "type": "campaign", "benchmark": c[r%len(c)][0], "mode": c[r%len(c)][1],
					"instructions": serveInstrs + serveInstrsStep*(r/len(c)),
					"sites":        "standard", "fault_kind": "permanent",
				})
				if err != nil {
					return nil, err
				}
				ops = append(ops, serveOp{spec: len(tn.specs), isNew: true})
				tn.specs = append(tn.specs, spec)
				ops = append(ops, serveOp{spec: rng.IntN(len(tn.specs))})
			}
			tn.ops = append(tn.ops, ops)
		}
		tn.results = make([][]byte, len(tn.specs))
		out = append(out, tn)
	}
	// Op IDs in issue order per tenant, tenants interleaved by round.
	id := 0
	for r := 0; r < rounds; r++ {
		for _, tn := range out {
			for i := range tn.ops[r] {
				tn.ops[r][i].id = id
				id++
			}
		}
	}
	return out, nil
}

// round runs both tenants' ops for round r concurrently, each closed loop.
func (b *serveBench) round(r int) ([]opRec, error) {
	recs := make([][]opRec, len(b.tenants))
	var wg sync.WaitGroup
	for i, tn := range b.tenants {
		wg.Add(1)
		go func(i int, tn *tenant) {
			defer wg.Done()
			for _, op := range tn.ops[r] {
				recs[i] = append(recs[i], b.op(tn, op))
			}
		}(i, tn)
	}
	wg.Wait()
	var out []opRec
	for _, rs := range recs {
		out = append(out, rs...)
	}
	return out, nil
}

// op submits one job, follows its event stream to the terminal state and
// fetches its result. Any non-2xx response fails the op; so does a repeat
// whose result differs from its spec's first result.
func (b *serveBench) op(tn *tenant, op serveOp) opRec {
	rec := opRec{start: time.Now()}
	root := b.tr.start("op", op.id, -1, tn.tid)
	err := b.job(tn, op, root)
	b.tr.finish(root, 0)
	rec.end = time.Now()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bjbench: serve op %d failed: %v\n", op.id, err)
		rec.failed = true
	}
	return rec
}

func (b *serveBench) job(tn *tenant, op serveOp, root int) error {
	sp := b.tr.start("serve.admit", op.id, root, tn.tid)
	body, status, err := tn.do("POST", b.base+"/api/v1/jobs", tn.specs[op.spec])
	b.tr.finish(sp, 0)
	if status == http.StatusTooManyRequests {
		tn.rejected++
	}
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	var j serve.Job
	if err := json.Unmarshal(body, &j); err != nil {
		return fmt.Errorf("submit response: %w", err)
	}

	sp = b.tr.start("serve.events", op.id, root, tn.tid)
	body, _, err = tn.do("GET", b.base+"/api/v1/jobs/"+j.ID+"/events", nil)
	b.tr.finish(sp, 0)
	if err != nil {
		return fmt.Errorf("events: %w", err)
	}
	var queued, running, done time.Time
	var runs []serve.Event
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		var e serve.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return fmt.Errorf("event: %w", err)
		}
		switch {
		case e.Kind == "run":
			runs = append(runs, e)
		case e.State == serve.StateQueued && queued.IsZero():
			queued = e.At
		case e.State == serve.StateRunning:
			running = e.At
		case e.State == serve.StateDone:
			done = e.At
		}
	}
	if done.IsZero() || running.IsZero() {
		return fmt.Errorf("job %s ended without reaching done", j.ID)
	}
	b.tr.record("serve.queue_wait", op.id, sp, tn.tid, queued, running, 0)
	exec := b.tr.record("serve.exec", op.id, sp, tn.tid, running, done, int64(len(runs)))
	last := running
	for _, e := range runs {
		name := "sim.path." + e.Served
		if e.Served == "cache" {
			name = "runcache.served"
		}
		b.tr.record(name, op.id, exec, tn.tid, last, e.At, 1)
		last = e.At
	}

	sp = b.tr.start("serve.result", op.id, root, tn.tid)
	result, _, err := tn.do("GET", b.base+"/api/v1/jobs/"+j.ID+"/result", nil)
	b.tr.finish(sp, 0)
	if err != nil {
		return fmt.Errorf("result: %w", err)
	}

	tn.d.add(uint64(op.spec))
	tn.d.addString(string(result))
	for _, e := range runs {
		tn.d.addString(e.Served)
		tn.paths[e.Served]++
	}
	tn.records += len(runs)
	if op.isNew {
		tn.results[op.spec] = result
	} else if !bytes.Equal(result, tn.results[op.spec]) {
		return fmt.Errorf("repeat of spec %d returned a different result", op.spec)
	}
	return nil
}

// do makes one request and returns the whole body; a non-2xx status is an
// error.
func (tn *tenant) do(method, url string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := tn.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, resp.StatusCode, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(out))
	}
	return out, resp.StatusCode, nil
}

// probeRecord is the journal probe's record shape.
type probeRecord struct {
	Site string `json:"site"`
}

// probe times fsync'd appends to a journal under the run's state dir, the
// way the server journals each run.
func (b *serveBench) probe(r int) error {
	path := filepath.Join(b.dir, "state", fmt.Sprintf("probe-%d.journal", r))
	j, _, err := journal.Open[probeRecord](path, journal.Header{Kind: "bjbench-probe", Key: uint64(r), Version: 1})
	if err != nil {
		return err
	}
	j.SetSyncEvery(1)
	for i := 0; i < journalProbes; i++ {
		sp := b.tr.start("journal.append_sync", -1, -1, 2)
		err := j.Append(i, probeRecord{Site: "probe"})
		b.tr.finish(sp, 1)
		if err != nil {
			j.Close()
			return err
		}
	}
	return j.Close()
}

func (b *serveBench) digest() uint64 {
	d := newDigest()
	for _, tn := range b.tenants {
		d.add(tn.d.value())
		for _, p := range pathNames {
			d.add(uint64(tn.paths[p]))
		}
	}
	return d.value()
}

func (b *serveBench) layers(m map[string]float64) {
	for _, tn := range b.tenants {
		for _, p := range pathNames {
			m["sim.path."+p+".runs"] += float64(tn.paths[p])
		}
		m["serve.rejected"] += float64(tn.rejected)
		m["journal.records"] += float64(tn.records)
	}
	reg := b.srv.Metrics()
	hits, misses := reg.CounterValue("runcache.hits"), reg.CounterValue("runcache.misses")
	m["runcache.hits"] = float64(hits)
	m["runcache.misses"] = float64(misses)
	m["runcache.puts"] = float64(reg.CounterValue("runcache.puts"))
	m["runcache.bytes"] = float64(reg.CounterValue("runcache.bytes"))
	if hits+misses > 0 {
		m["runcache.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	m["serve.requeued"] = float64(reg.CounterValue("serve.jobs.requeues"))
}

// close stops the listener, drains the server, closes the clients'
// connections and removes the state and cache dirs.
func (b *serveBench) close() error {
	var errs []error
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if b.hs != nil {
		errs = append(errs, b.hs.Shutdown(ctx))
		if err := <-b.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if b.srv != nil {
		if n := b.srv.Drain(ctx); n > 0 {
			errs = append(errs, fmt.Errorf("%d jobs still incomplete at drain", n))
		}
	}
	for _, tn := range b.tenants {
		tn.client.CloseIdleConnections()
	}
	errs = append(errs, os.RemoveAll(b.dir))
	return errors.Join(errs...)
}

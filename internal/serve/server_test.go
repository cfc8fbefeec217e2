package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"blackjack/internal/diffcheck"
)

// newTestServer builds a server over a temp state dir. No shared cache by
// default, so every job runs live on its private run store, which crash
// tests resume from.
func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.StateDir == "" {
		opts.StateDir = t.TempDir()
	}
	if opts.RunParallel == 0 {
		opts.RunParallel = 2
	}
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// submit posts a spec body and decodes the created job.
func submit(t *testing.T, ts *httptest.Server, body string) Job {
	t.Helper()
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		var e map[string]any
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST status %d: %v", resp.StatusCode, e)
	}
	var j Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatalf("decode job: %v", err)
	}
	return j
}

// waitState polls until the job reaches want (or any terminal state).
func waitState(t *testing.T, s *Server, id string, want State) Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if j.State == want {
			return j
		}
		if j.State.terminal() {
			t.Fatalf("job %s reached %s (%s), want %s", id, j.State, j.Detail, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	j, _ := s.Job(id)
	t.Fatalf("timeout: job %s is %s, want %s", id, j.State, want)
	return Job{}
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteString("\n")
	}
	return resp.StatusCode, sb.String()
}

// A sweep is the concatenation of its cells' tables in grid order.
func TestSweepConcatenatesCellTables(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	s.Start()
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j := submit(t, ts, `{"type": "sweep", "benchmarks": ["gzip"], "modes": ["srt", "blackjack"], "instructions": 2000, "sites": "latent", "cache": "off"}`)
	waitState(t, s, j.ID, StateDone)
	_, got := getBody(t, ts.URL+"/api/v1/jobs/"+j.ID+"/result")
	for _, header := range []string{`== srt on "gzip": 16 sites ==`, `== blackjack on "gzip": 16 sites ==`} {
		if !strings.Contains(got, header) {
			t.Errorf("sweep result missing %q:\n%s", header, got)
		}
	}
	if srt, bj := strings.Index(got, "== srt"), strings.Index(got, "== blackjack"); srt > bj {
		t.Errorf("cells out of grid order")
	}
}

// Over-capacity submissions get 429 + Retry-After, never unbounded queue
// growth.
func TestAdmissionControl429(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueCap: 2})
	// No Start: jobs stay queued, so capacity fills deterministically.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := `{"benchmark": "gzip", "instructions": 1000}`
	submit(t, ts, spec)
	submit(t, ts, spec)
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After = %q, want a positive estimate", ra)
	}
	reg := s.Metrics()
	if reg.CounterValue("serve.jobs.rejected") != 1 {
		t.Errorf("serve.jobs.rejected = %d, want 1", reg.CounterValue("serve.jobs.rejected"))
	}
	if reg.CounterValue("serve.jobs.admitted") != 2 {
		t.Errorf("serve.jobs.admitted = %d, want 2", reg.CounterValue("serve.jobs.admitted"))
	}
	if reg.GaugeValue("serve.queue.depth") != 2 {
		t.Errorf("serve.queue.depth = %g, want 2", reg.GaugeValue("serve.queue.depth"))
	}
}

// Two tenants, one flooding: the weighted fair scheduler interleaves, so
// the second tenant's jobs complete long before the flood drains, and the
// per-tenant completed-run metrics account for every run.
func TestTwoTenantFairness(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueCap: 32})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Flood from alice first, then two jobs from bob — all before Start,
	// so dispatch order is purely the scheduler's.
	var aliceIDs, bobIDs []string
	for i := 0; i < 6; i++ {
		j := submit(t, ts, `{"tenant": "alice", "benchmark": "gzip", "instructions": 1500, "sites": "latent", "cache": "off"}`)
		aliceIDs = append(aliceIDs, j.ID)
	}
	for i := 0; i < 2; i++ {
		j := submit(t, ts, `{"tenant": "bob", "benchmark": "gzip", "instructions": 1500, "sites": "latent", "cache": "off"}`)
		bobIDs = append(bobIDs, j.ID)
	}
	s.Start()
	defer s.Drain(context.Background())

	for _, id := range append(append([]string{}, aliceIDs...), bobIDs...) {
		waitState(t, s, id, StateDone)
	}
	// bob's last job must have finished before alice's backlog: with 1:1
	// interleave his 2nd job is dispatch #4 of 8, so at least alice's two
	// final jobs settle after it.
	bobLast, _ := s.Job(bobIDs[1])
	after := 0
	for _, id := range aliceIDs {
		j, _ := s.Job(id)
		if j.Updated.After(bobLast.Updated) {
			after++
		}
	}
	if after < 2 {
		t.Errorf("fairness: only %d alice jobs completed after bob's last; flood starved bob", after)
	}

	reg := s.Metrics()
	runsPerJob := uint64(16)
	if got := reg.CounterValue("serve.tenant.alice.runs"); got != 6*runsPerJob {
		t.Errorf("serve.tenant.alice.runs = %d, want %d", got, 6*runsPerJob)
	}
	if got := reg.CounterValue("serve.tenant.bob.runs"); got != 2*runsPerJob {
		t.Errorf("serve.tenant.bob.runs = %d, want %d", got, 2*runsPerJob)
	}
	if got := reg.CounterValue("serve.tenant.bob.jobs_completed"); got != 2 {
		t.Errorf("serve.tenant.bob.jobs_completed = %d, want 2", got)
	}
}

// The NDJSON event stream carries every run and the terminal transition.
func TestEventStreamNDJSON(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	s.Start()
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j := submit(t, ts, `{"benchmark": "gzip", "instructions": 1500, "sites": "latent", "cache": "off"}`)

	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	var runs int
	var sawDone bool
	lastSeq := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if e.Seq <= lastSeq {
			t.Fatalf("sequence not monotonic: %d after %d", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		switch e.Kind {
		case "run":
			runs++
			if e.Site == "" || e.Outcome == "" || e.Served == "" {
				t.Errorf("run event missing fields: %+v", e)
			}
		case "state":
			if e.State == StateDone {
				sawDone = true
			}
		}
	}
	if runs != 16 {
		t.Errorf("streamed %d run events, want 16", runs)
	}
	if !sawDone {
		t.Error("stream ended without a done transition")
	}
}

// SSE framing: data: lines with event IDs, on request.
func TestEventStreamSSE(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	s.Start()
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j := submit(t, ts, `{"benchmark": "gzip", "instructions": 1000, "sites": "latent", "cache": "off"}`)
	waitState(t, s, j.ID, StateDone)

	req, _ := http.NewRequest("GET", ts.URL+"/api/v1/jobs/"+j.ID+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	_, body := getBodyFromResp(t, resp)
	if !strings.Contains(body, "id: 1\n") || !strings.Contains(body, "data: {") {
		t.Errorf("not SSE-framed:\n%s", body[:min(len(body), 400)])
	}
}

func getBodyFromResp(t *testing.T, resp *http.Response) (int, string) {
	t.Helper()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteString("\n")
	}
	return resp.StatusCode, sb.String()
}

// A job whose deadline keeps expiring is requeued with backoff until the
// budget runs out, then fails with the attempt history in its detail.
func TestDeadlineRequeueThenFail(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, RequeueBase: 10 * time.Millisecond})
	s.Start()
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// 1ns deadline: every attempt exceeds it immediately.
	j := submit(t, ts, `{"benchmark": "gzip", "instructions": 200000, "deadline": 1, "retries": 2, "cache": "off"}`)
	deadline := time.Now().Add(30 * time.Second)
	var final Job
	for time.Now().Before(deadline) {
		final, _ = s.Job(j.ID)
		if final.State.terminal() {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if final.State != StateFailed {
		t.Fatalf("state = %s (%s), want failed", final.State, final.Detail)
	}
	if final.Attempt != 3 {
		t.Errorf("attempts = %d, want 3 (1 + 2 requeues)", final.Attempt)
	}
	if !strings.Contains(final.Detail, "deadline exceeded") {
		t.Errorf("detail = %q", final.Detail)
	}
	if got := s.Metrics().CounterValue("serve.jobs.requeues"); got != 2 {
		t.Errorf("serve.jobs.requeues = %d, want 2", got)
	}
}

// Draining rejects new work with 503 and leaves incomplete jobs resumable.
func TestDrainStopsAdmission(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submit(t, ts, `{"benchmark": "gzip", "instructions": 1000}`)
	if n := s.Drain(context.Background()); n != 1 {
		t.Errorf("Drain reported %d incomplete, want 1 (job never started)", n)
	}
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json",
		strings.NewReader(`{"benchmark": "gzip"}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503", resp.StatusCode)
	}
}

// A restart after drain resumes the queued job and completes it.
func TestRestartResumesQueuedJob(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Options{StateDir: dir, Workers: 1})
	ts1 := httptest.NewServer(s1.Handler())
	j := submit(t, ts1, `{"benchmark": "gzip", "instructions": 1500, "sites": "latent", "cache": "off"}`)
	ts1.Close()
	s1.Drain(context.Background()) // job still queued: Start was never called

	s2 := newTestServer(t, Options{StateDir: dir, Workers: 2})
	got, ok := s2.Job(j.ID)
	if !ok {
		t.Fatalf("restart lost job %s", j.ID)
	}
	// Read the reloaded state before Start: once the executor runs, it may
	// already have picked the job up.
	if got.State != StateQueued {
		t.Fatalf("restarted job state = %s, want queued", got.State)
	}
	s2.Start()
	defer s2.Drain(context.Background())
	waitState(t, s2, j.ID, StateDone)
}

// Typed spec errors surface through the API with the suggestion attached.
func TestSubmitRejectsBadSpecWithSuggestion(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json",
		strings.NewReader(`{"benchmrak": "gcc"}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var body struct {
		Error     string     `json:"error"`
		SpecError *SpecError `json:"spec_error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if body.SpecError == nil || body.SpecError.Field != "benchmrak" || body.SpecError.Suggestion != "benchmark" {
		t.Errorf("spec_error = %+v", body.SpecError)
	}
}

// Specs are JSON only: any other body is a typed error on "(body)" and a
// 400, whatever Content-Type it claims.
func TestSubmitRejectsNonJSONSpec(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/yaml",
		strings.NewReader("benchmark: gcc\nsites: latent\n"))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var body struct {
		SpecError *SpecError `json:"spec_error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if body.SpecError == nil || body.SpecError.Field != "(body)" {
		t.Errorf("spec_error = %+v, want a (body) error", body.SpecError)
	}
}

// A fuzz job runs, stores its programs, and renders exactly the summary
// bjfuzz prints for the same session.
func TestFuzzJob(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	s.Start()
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j := submit(t, ts, `{"type": "fuzz", "programs": 6, "instructions": 2000, "seed": 7}`)
	waitState(t, s, j.ID, StateDone)
	_, got := getBody(t, ts.URL+"/api/v1/jobs/"+j.ID+"/result")
	sum, err := diffcheck.Fuzz(diffcheck.FuzzOptions{Programs: 6, MaxInstr: 2000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := diffcheck.WriteFuzzSummary(&want, sum); err != nil {
		t.Fatal(err)
	}
	if got != want.String() {
		t.Errorf("served fuzz result differs from the bjfuzz summary:\n--- served ---\n%s--- bjfuzz ---\n%s", got, want.String())
	}
	done, _ := s.Job(j.ID)
	if done.Done != 6 {
		t.Errorf("fuzz progress done = %d, want 6", done.Done)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	submit(t, ts, `{"benchmark": "gzip"}`)

	status, body := getBody(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics status %d", status)
	}
	for _, want := range []string{"serve.jobs.admitted", "serve.queue.depth"} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics text missing %s:\n%s", want, body)
		}
	}
}

// A job's private run store lasts as long as the job may resume from it:
// through a drain and restart, and through a requeue. It goes once the job
// is terminal, done or failed.
func TestPrivateStoreLivesUntilTerminal(t *testing.T) {
	// storeRuns reports whether the job's private store exists and how many
	// runs it holds.
	storeRuns := func(t *testing.T, dir, id string) (bool, int) {
		t.Helper()
		n := 0
		err := filepath.WalkDir(privateStoreDir(dir, id), func(_ string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				n++
			}
			return err
		})
		if errors.Is(err, fs.ErrNotExist) {
			return false, 0
		}
		if err != nil {
			t.Fatal(err)
		}
		return true, n
	}
	// poll waits until the job satisfies ok.
	poll := func(t *testing.T, s *Server, id string, ok func(Job) bool) Job {
		t.Helper()
		for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
			if j, _ := s.Job(id); ok(j) {
				return j
			}
		}
		j, _ := s.Job(id)
		t.Fatalf("timeout: job %s is %s after %d attempts, %d runs", id, j.State, j.Attempt, j.Done)
		return Job{}
	}

	t.Run("drain", func(t *testing.T) {
		dir := t.TempDir()
		s1 := newTestServer(t, Options{StateDir: dir, Workers: 1})
		ts1 := httptest.NewServer(s1.Handler())
		j := submit(t, ts1, `{"benchmark": "gcc", "instructions": 10000, "cache": "off"}`)
		ts1.Close()
		s1.Start()
		poll(t, s1, j.ID, func(j Job) bool { return j.Done >= 1 })
		s1.Drain(context.Background())
		if got, _ := s1.Job(j.ID); got.State != StateDraining {
			t.Fatalf("drained job is %s, want draining", got.State)
		}
		if ok, n := storeRuns(t, dir, j.ID); !ok || n == 0 {
			t.Fatalf("drained job's private store: exists %v, %d runs", ok, n)
		}
		s2 := newTestServer(t, Options{StateDir: dir, Workers: 1})
		s2.Start()
		defer s2.Drain(context.Background())
		waitState(t, s2, j.ID, StateDone)
		if ok, _ := storeRuns(t, dir, j.ID); ok {
			t.Error("a done job keeps its private store")
		}
	})

	t.Run("requeue", func(t *testing.T) {
		dir := t.TempDir()
		s := newTestServer(t, Options{StateDir: dir, Workers: 1, RequeueBase: 300 * time.Millisecond})
		s.Start()
		defer s.Drain(context.Background())
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		// Each attempt's deadline ends it part-way; the second attempt
		// resumes the first's runs, and ends done or failed.
		j := submit(t, ts, `{"benchmark": "gcc", "instructions": 200000, "cache": "off", "deadline": "500ms", "retries": 1}`)
		poll(t, s, j.ID, func(j Job) bool { return j.State == StateQueued && j.Attempt == 1 })
		ok, n := storeRuns(t, dir, j.ID)
		if !ok {
			t.Fatal("a requeued job lost its private store")
		}
		t.Logf("requeued with %d stored runs", n)
		final := poll(t, s, j.ID, func(j Job) bool { return j.State.terminal() })
		if ok, _ := storeRuns(t, dir, j.ID); ok {
			t.Errorf("a %s job keeps its private store", final.State)
		}
	})
}

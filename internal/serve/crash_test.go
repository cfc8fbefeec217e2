package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"blackjack"
)

// TestMain lets this test binary double as a real bjserve process: the
// crash test re-executes itself with SERVE_CRASH_STATE set, SIGKILLs the
// child mid-campaign, restarts it, and proves the job completes with the
// batch-identical table. A true SIGKILL (not a cooperative cancel) is the
// point: nothing gets to flush on the way down.
func TestMain(m *testing.M) {
	if dir := os.Getenv("SERVE_CRASH_STATE"); dir != "" {
		crashServerMain(dir, os.Getenv("SERVE_CRASH_ADDRFILE"))
		return
	}
	os.Exit(m.Run())
}

// crashServerMain is the child: a minimal bjserve (one executor slot, no
// cache) that writes its listen address for the parent and serves until
// killed.
func crashServerMain(stateDir, addrFile string) {
	s, err := New(Options{StateDir: stateDir, Workers: 1, RunParallel: 2})
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash server:", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash server:", err)
		os.Exit(1)
	}
	if err := atomicWrite(addrFile, []byte(ln.Addr().String())); err != nil {
		fmt.Fprintln(os.Stderr, "crash server:", err)
		os.Exit(1)
	}
	s.Start()
	if err := (&http.Server{Handler: s.Handler()}).Serve(ln); err != nil {
		fmt.Fprintln(os.Stderr, "crash server:", err)
		os.Exit(1)
	}
}

// spawnCrashServer starts the helper and waits for its address.
func spawnCrashServer(t *testing.T, stateDir string) (*exec.Cmd, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	addrFile := filepath.Join(t.TempDir(), "addr")
	cmd := exec.Command(exe, "-test.run=^$")
	cmd.Env = append(os.Environ(),
		"SERVE_CRASH_STATE="+stateDir,
		"SERVE_CRASH_ADDRFILE="+addrFile)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start helper: %v", err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if buf, err := os.ReadFile(addrFile); err == nil && len(buf) > 0 {
			return cmd, string(buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
	cmd.Process.Kill()
	t.Fatal("helper server never published its address")
	return nil, ""
}

// countRunEvents drains the non-blocking event feed and reports run events
// and how many were served from the job's run store.
func countRunEvents(t *testing.T, base, id string) (runs, fromStore int) {
	t.Helper()
	resp, err := http.Get(base + "/api/v1/jobs/" + id + "/events?wait=false")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e Event
		if json.Unmarshal(sc.Bytes(), &e) != nil {
			continue
		}
		if e.Kind == "run" {
			runs++
			if e.Served == "cache" {
				fromStore++
			}
		}
	}
	return runs, fromStore
}

// The acceptance criterion, end to end: SIGKILL the server mid-campaign,
// restart on the same state dir, and the job completes with an outcome
// table byte-identical to an uninterrupted batch run — with the completed
// prefix served from the job's run store, not re-simulated.
func TestSIGKILLMidCampaignResumesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real server processes")
	}
	stateDir := t.TempDir()
	cmd1, addr := spawnCrashServer(t, stateDir)
	base := "http://" + addr

	// A 16-site campaign big enough to be mid-flight when the kill lands.
	spec := `{"benchmark": "gzip", "mode": "blackjack", "instructions": 60000, "sites": "latent", "parallel": 2, "cache": "off"}`
	resp, err := http.Post(base+"/api/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()

	// Wait until some runs completed (the store has a prefix), then SIGKILL.
	deadline := time.Now().Add(60 * time.Second)
	progressed := 0
	for time.Now().Before(deadline) {
		progressed, _ = countRunEvents(t, base, job.ID)
		if progressed >= 2 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if progressed < 2 {
		cmd1.Process.Kill()
		t.Fatalf("campaign never progressed (%d runs)", progressed)
	}
	if err := cmd1.Process.Kill(); err != nil { // SIGKILL: no flush, no drain
		t.Fatalf("kill: %v", err)
	}
	cmd1.Wait()
	if progressed >= 16 {
		t.Logf("note: campaign finished before the kill (%d runs); resume still exercised via the run store", progressed)
	}

	// Restart on the same state dir: the job must resume and complete.
	cmd2, addr2 := spawnCrashServer(t, stateDir)
	defer func() {
		cmd2.Process.Kill()
		cmd2.Wait()
	}()
	base = "http://" + addr2
	deadline = time.Now().Add(120 * time.Second)
	var got Job
	for time.Now().Before(deadline) {
		r, err := http.Get(base + "/api/v1/jobs/" + job.ID)
		if err == nil {
			json.NewDecoder(r.Body).Decode(&got)
			r.Body.Close()
			if got.State == StateDone {
				break
			}
			if got.State == StateFailed || got.State == StateQuarantined {
				t.Fatalf("job %s after restart: %s (%s)", job.ID, got.State, got.Detail)
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	if got.State != StateDone {
		t.Fatalf("job did not complete after restart: %+v", got)
	}

	// The run store, not re-simulation, must have covered the prefix.
	runs, fromStore := countRunEvents(t, base, job.ID)
	if runs != 16 {
		t.Errorf("restart streamed %d run events, want 16", runs)
	}
	if fromStore == 0 {
		t.Error("no runs served from the run store after restart; the completed prefix was re-simulated or lost")
	}

	r, err := http.Get(base + "/api/v1/jobs/" + job.ID + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	servedBytes := make([]byte, 0, 4096)
	sc := bufio.NewScanner(r.Body)
	for sc.Scan() {
		servedBytes = append(servedBytes, sc.Text()...)
		servedBytes = append(servedBytes, '\n')
	}
	r.Body.Close()

	// Reference: an uninterrupted batch run of exactly the same work.
	cfg := blackjack.DefaultConfig(blackjack.ModeBlackJack, 60000)
	cfg.Parallel = 2
	cfg.Resilience = blackjack.Resilience{Isolate: true}
	sites := blackjack.LatentFaultSites(cfg.Machine)
	sum, err := blackjack.Campaign(cfg, "gzip", sites, blackjack.InjectOptions{SplitPayload: true})
	if err != nil {
		t.Fatalf("batch campaign: %v", err)
	}
	var want strings.Builder
	if err := blackjack.WriteCampaignTable(&want, cfg.Mode, "gzip", sum); err != nil {
		t.Fatalf("render: %v", err)
	}
	if string(servedBytes) != want.String() {
		t.Errorf("crash-resumed table differs from uninterrupted batch run:\n--- served ---\n%s--- batch ---\n%s",
			servedBytes, want.String())
	}
}

// Two servers on one state directory: the second New fails, naming the
// lock, instead of requeueing the first server's running job and running it
// alongside; the job finishes on the first server with the batch table.
// Once the first server drains, the directory can be opened again.
func TestSecondServerCannotStealRunningJob(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Options{StateDir: dir, Workers: 1})
	s1.Start()
	ts1 := httptest.NewServer(s1.Handler())
	defer ts1.Close()

	j := submit(t, ts1, `{"benchmark": "gzip", "instructions": 20000, "sites": "latent", "parallel": 1, "cache": "off"}`)
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if got, _ := s1.Job(j.ID); got.State != StateQueued {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	if s2, err := New(Options{StateDir: dir, Workers: 1}); !errors.Is(err, ErrLocked) || !strings.Contains(err.Error(), "lock") {
		if s2 != nil {
			s2.Drain(context.Background())
		}
		t.Fatalf("second New on a held state dir: err = %v, want an error naming the lock", err)
	}

	waitState(t, s1, j.ID, StateDone)
	_, got := getBody(t, ts1.URL+"/api/v1/jobs/"+j.ID+"/result")
	cfg := blackjack.DefaultConfig(blackjack.ModeBlackJack, 20000)
	cfg.Parallel = 1
	cfg.Resilience = blackjack.Resilience{Isolate: true}
	sum, err := blackjack.Campaign(cfg, "gzip", blackjack.LatentFaultSites(cfg.Machine), blackjack.InjectOptions{SplitPayload: true})
	if err != nil {
		t.Fatalf("batch campaign: %v", err)
	}
	var want strings.Builder
	if err := blackjack.WriteCampaignTable(&want, cfg.Mode, "gzip", sum); err != nil {
		t.Fatal(err)
	}
	if got != want.String() {
		t.Errorf("job result differs from the batch run:\n--- served ---\n%s--- batch ---\n%s", got, want.String())
	}

	s1.Drain(context.Background())
	s3, err := New(Options{StateDir: dir, Workers: 1})
	if err != nil {
		t.Fatalf("New after the holder drained: %v", err)
	}
	s3.Drain(context.Background())
}

// The state-directory lock is exclusive while held and free once closed:
// a SIGKILLed server's lock dies with its file descriptor.
func TestSecondOpenFailsFastWhileLocked(t *testing.T) {
	if runtime.GOOS == "windows" || runtime.GOOS == "plan9" {
		t.Skip("flock exclusivity is unix-only")
	}
	path := filepath.Join(t.TempDir(), "lock")
	open := func() *os.File {
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	held := open()
	if err := lockFile(held); err != nil {
		t.Fatal(err)
	}
	second := open()
	if err := lockFile(second); !errors.Is(err, ErrLocked) {
		t.Fatalf("second lock while held: err = %v, want ErrLocked", err)
	}
	second.Close()
	held.Close()
	again := open()
	defer again.Close()
	if err := lockFile(again); err != nil {
		t.Fatalf("lock after the holder closed: %v", err)
	}
}

package cli

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"blackjack/internal/runcache"
	"blackjack/internal/sim"
)

// helperEnv names the exit path a re-executed test binary takes instead of
// running the tests.
const helperEnv = "CLI_TEST_EXIT_PATH"

func TestMain(m *testing.M) {
	if path := os.Getenv(helperEnv); path != "" {
		runHelper(path)
		panic("helper returned without exiting")
	}
	os.Exit(m.Run())
}

// runHelper plays a tool that registered the profile and cache groups and
// then leaves through one of the package's non-zero exit paths.
func runHelper(path string) {
	cache := CacheFlags()
	ProfileFlags()
	Parse("helper")
	defer Cleanup()
	switch path {
	case "fatal":
		Fatal(errors.New("boom"))
	case "deadlock":
		Fatal(&sim.DeadlockError{Benchmark: "gzip"})
	case "diverged":
		store, _ := cache.Open()
		store.CountVerify(true)
		store.CountVerify(false)
		cache.Report()
	case "signal":
		cache.Open()
		ctx, stop := SignalContext()
		defer stop()
		if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
			Fatal(err)
		}
		<-ctx.Done()
		Fatal(ctx.Err())
	}
}

// Every non-zero exit flushes the profiles a deferred stop would have
// written: a CPU profile cut short by os.Exit is an empty file.
func TestExitFlushesProfiles(t *testing.T) {
	cases := []struct {
		path   string
		code   int
		stderr string
	}{
		{"fatal", ExitError, "helper: boom\n"},
		{"deadlock", ExitDeadlock, "helper: sim: gzip/"},
		{"diverged", ExitDiverged, "helper: cache verification: 1 of 2 recomputed hits diverged\n"},
		{"signal", ExitInterrupted, "helper: interrupted; completed runs are stored in "},
	}
	for _, c := range cases {
		t.Run(c.path, func(t *testing.T) {
			dir := t.TempDir()
			cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
			cmd := exec.Command(os.Args[0], "-cpuprofile", cpu, "-memprofile", mem, "-cache-dir", filepath.Join(dir, "cache"))
			cmd.Env = append(os.Environ(), helperEnv+"="+c.path)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != c.code {
				t.Fatalf("exit: %v, want code %d (stderr %q)", err, c.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("stderr %q, want it to contain %q", stderr.String(), c.stderr)
			}
			for _, p := range []string{cpu, mem} {
				if st, err := os.Stat(p); err != nil || st.Size() == 0 {
					t.Errorf("%s not flushed before exit (stat %v)", filepath.Base(p), err)
				}
			}
		})
	}
}

// The reporter returns, without exiting, when caching is off and when a
// store saw traffic but no verification divergence.
func TestCacheReportReturnsWithoutDivergence(t *testing.T) {
	store, err := runcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var v int
	store.Get(runcache.NewIdentity("miss"), &v)
	store.CountVerify(false)
	(&Cache{store: store}).Report()
	(&Cache{}).Report()
}

func TestCacheOpenWithoutDirIsOff(t *testing.T) {
	dir, verify := "", 0.5
	store, v := (&Cache{dir: &dir, verify: &verify}).Open()
	if store != nil || v != 0 {
		t.Errorf("Open() = %v, %g; want nil store", store, v)
	}
	if resumeHint != "" {
		t.Errorf("no store, yet the interrupted message names one: %q", resumeHint)
	}
}

func TestStartWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	if err := startProfiles(cpu, mem); err != nil {
		t.Fatal(err)
	}
	Cleanup()
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

func TestStartNoPathsIsNoop(t *testing.T) {
	if err := startProfiles("", ""); err != nil {
		t.Fatal(err)
	}
	Cleanup()
}

func TestStartBadPath(t *testing.T) {
	if err := startProfiles(filepath.Join("no", "such", "dir", "cpu.out"), ""); err == nil {
		t.Fatal("expected error for unwritable cpu profile path")
	}
}

func TestCleanupRunsNewestFirstOnce(t *testing.T) {
	var got []int
	onExit(func() { got = append(got, 1) })
	onExit(func() { got = append(got, 2) })
	Cleanup()
	Cleanup()
	if len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Errorf("cleanups ran %v, want [2 1]", got)
	}
}

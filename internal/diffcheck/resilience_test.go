package diffcheck

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"blackjack/internal/isa"
	"blackjack/internal/journal"
)

// withFuzzHook installs a fuzz test hook for the test's duration. Tests
// using it must not run in parallel with each other.
func withFuzzHook(t *testing.T, hook func(i int, p *isa.Program)) {
	t.Helper()
	fuzzTestHook = hook
	t.Cleanup(func() { fuzzTestHook = nil })
}

// fuzzSummaryString renders everything observable about a summary except
// Resumed (which intentionally differs between fresh and resumed sessions).
func fuzzSummaryString(sum *FuzzSummary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "programs=%d runs=%d shuffles=%d entries=%d\n",
		sum.Programs, sum.Runs, sum.Shuffles, sum.Entries)
	for _, f := range sum.Failures {
		prog := "<nil>"
		if f.Program != nil {
			prog = fmt.Sprintf("%s/%d", f.Program.Name, len(f.Program.Code))
		}
		min := "<nil>"
		if f.Minimized != nil {
			min = fmt.Sprintf("%d", len(f.Minimized.Code))
		}
		fmt.Fprintf(&b, "fail %d seed=%#x source=%s prog=%s min=%s enc=%d divs=%v\n",
			f.Index, f.Seed, f.Source, prog, min, len(f.Encoded), f.Divergences)
	}
	return b.String()
}

func TestFuzzPanicIsolatedAsDivergence(t *testing.T) {
	withFuzzHook(t, func(i int, p *isa.Program) {
		if i == 3 {
			panic("poisoned check")
		}
	})
	sum, err := Fuzz(FuzzOptions{Programs: 6, Seed: 11, MaxInstr: 800, Workers: 2})
	if err != nil {
		t.Fatalf("panic escaped the isolation boundary: %v", err)
	}
	if len(sum.Failures) != 1 {
		t.Fatalf("expected exactly the poisoned program to fail, got %d failures", len(sum.Failures))
	}
	f := sum.Failures[0]
	if f.Index != 3 {
		t.Fatalf("failure at index %d, want 3", f.Index)
	}
	if len(f.Divergences) != 1 || f.Divergences[0].Variant != harnessVariant || f.Divergences[0].Kind != "panic" {
		t.Fatalf("unexpected divergences: %v", f.Divergences)
	}
	if !strings.Contains(f.Divergences[0].Detail, "poisoned check") {
		t.Fatalf("panic value lost: %q", f.Divergences[0].Detail)
	}
	if f.Program == nil {
		t.Fatal("failure lost its program")
	}
	// The other five programs completed and contributed runs.
	if sum.Runs == 0 || sum.Shuffles == 0 {
		t.Fatalf("healthy programs did not run: %+v", sum)
	}
}

func TestFuzzShrinkTreatsPanicAsFailing(t *testing.T) {
	// Every minimization candidate panics too: delta debugging must treat
	// that as "still fails" and keep shrinking instead of crashing.
	withFuzzHook(t, func(i int, p *isa.Program) {
		if i == 2 || i == -1 {
			panic("poisoned check")
		}
	})
	sum, err := Fuzz(FuzzOptions{Programs: 3, Seed: 5, MaxInstr: 500, Workers: 1, Shrink: true, ShrinkTests: 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Failures) != 1 || sum.Failures[0].Index != 2 {
		t.Fatalf("expected one failure at index 2: %+v", sum.Failures)
	}
	f := sum.Failures[0]
	if f.Minimized == nil {
		t.Fatal("panic-inducing program was not minimized")
	}
	if len(f.Minimized.Code) >= len(f.Program.Code) {
		t.Fatalf("minimization made no progress: %d -> %d instructions",
			len(f.Program.Code), len(f.Minimized.Code))
	}
}

func TestFuzzJournalResumeByteIdentical(t *testing.T) {
	// The hook makes program 2 a deterministic failure so the resumed
	// session exercises failure replay (program regeneration + minimized
	// decoding), not just the clean path.
	hook := func(i int, p *isa.Program) {
		if i == 2 {
			panic("poisoned check")
		}
	}
	withFuzzHook(t, hook)
	opts := FuzzOptions{Programs: 8, Seed: 23, MaxInstr: 800, Workers: 2, Shrink: true, ShrinkTests: 30}

	ref, err := Fuzz(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := fuzzSummaryString(ref)

	dir := t.TempDir()
	path := filepath.Join(dir, "fuzz.journal")
	jopts := opts
	jopts.JournalPath = path
	full, err := Fuzz(jopts)
	if err != nil {
		t.Fatal(err)
	}
	if got := fuzzSummaryString(full); got != want {
		t.Fatalf("journaled run diverged from plain run:\n got: %s\nwant: %s", got, want)
	}
	if full.Resumed != 0 {
		t.Fatalf("fresh journaled run claims %d resumed programs", full.Resumed)
	}

	// Simulate a crash: keep the header and the first 4 records, then a
	// torn trailing fragment as left by a kill mid-write.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	if len(lines) < 6 {
		t.Fatalf("journal too short to truncate: %d lines", len(lines))
	}
	crashed := strings.Join(lines[:5], "") + `{"i":7,"r":{"se`

	for _, workers := range []int{1, 3, 8} {
		// Each resume completes the journal, so re-crash it per iteration.
		if err := os.WriteFile(path, []byte(crashed), 0o644); err != nil {
			t.Fatal(err)
		}
		if done := journalRecords(t, path); done != 4 {
			t.Fatalf("workers=%d: journal replays %d records, want 4", workers, done)
		}
		ropts := opts
		ropts.Workers = workers
		ropts.JournalPath = path
		resumed, err := Fuzz(ropts)
		if err != nil {
			t.Fatalf("workers=%d: resume: %v", workers, err)
		}
		if resumed.Resumed != 4 {
			t.Fatalf("workers=%d: Resumed=%d, want 4", workers, resumed.Resumed)
		}
		if got := fuzzSummaryString(resumed); got != want {
			t.Fatalf("workers=%d: resumed summary diverged:\n got: %s\nwant: %s", workers, got, want)
		}
	}
}

// journalRecords counts the complete program records in the journal at
// path: every newline-terminated line after the header.
func journalRecords(t *testing.T, path string) int {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return max(strings.Count(string(raw), "\n")-1, 0)
}

// openJournalAt runs a session on opts journaling to path, with its
// context cancelled before the first program: the session opens (or
// creates) the journal and returns the open's error, else
// context.Canceled, having checked no program.
func openJournalAt(path string, opts FuzzOptions) error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts.Ctx, opts.JournalPath = ctx, path
	_, err := Fuzz(opts)
	return err
}

func TestFuzzJournalKeyMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fuzz.journal")
	opts := FuzzOptions{Programs: 4, Seed: 9, MaxInstr: 500}
	if err := openJournalAt(path, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("writing the journal: err = %v, want context.Canceled", err)
	}
	variant := Variants()[0]
	for name, other := range map[string]FuzzOptions{
		"seed":     {Programs: 4, Seed: 10, MaxInstr: 500},
		"maxinstr": {Programs: 4, Seed: 9, MaxInstr: 600},
		"variant":  {Programs: 4, Seed: 9, MaxInstr: 500, Variant: &variant},
	} {
		if err := openJournalAt(path, other); !errors.Is(err, journal.ErrKeyMismatch) {
			t.Fatalf("%s change accepted by mismatched journal: %v", name, err)
		}
	}
	// The program count is deliberately NOT part of the key: a journal
	// written under -n 4 must resume (and extend) under -n 400.
	grown := opts
	grown.Programs = 400
	if err := openJournalAt(path, grown); !errors.Is(err, context.Canceled) {
		t.Fatalf("program-count change refused: %v", err)
	}
}

// A session given the journal of a session with another seed is refused,
// never served its records: Fuzz replayed whatever journal it was handed
// by index, so a seed-2 session on a seed-1 journal reported seed 1's
// programs as its own. The refused attempt leaves the journal as it was.
func TestFuzzRefusesForeignJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seed1.journal")
	opts := FuzzOptions{Programs: 3, Seed: 1, MaxInstr: 500, Workers: 1, JournalPath: path}
	if _, err := Fuzz(opts); err != nil {
		t.Fatal(err)
	}
	wrote, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	opts.Seed = 2
	sum, err := Fuzz(opts)
	if !errors.Is(err, journal.ErrKeyMismatch) {
		t.Fatalf("err = %v (summary %+v), want ErrKeyMismatch", err, sum)
	}
	if after, _ := os.ReadFile(path); string(after) != string(wrote) {
		t.Error("the refused session changed the journal")
	}
}

// A program is durable before it is reported: with OnProgress set, every
// progress event finds its program's complete record already in the
// journal file, live and resumed programs alike.
func TestFuzzJournalDurableBeforeProgress(t *testing.T) {
	path := filepath.Join(t.TempDir(), "durable.journal")
	for _, resume := range []bool{false, true} {
		var mu sync.Mutex
		var missing []int
		opts := FuzzOptions{Programs: 6, Seed: 4, MaxInstr: 500, Workers: 2, JournalPath: path,
			OnProgress: func(i int, _ bool, _ int) {
				raw, err := os.ReadFile(path)
				if err != nil || !hasRecord(raw, i) {
					mu.Lock()
					missing = append(missing, i)
					mu.Unlock()
				}
			}}
		sum, err := Fuzz(opts)
		if err != nil {
			t.Fatal(err)
		}
		if resume != (sum.Resumed == opts.Programs) {
			t.Fatalf("resume=%v: %d of %d programs resumed", resume, sum.Resumed, opts.Programs)
		}
		if len(missing) > 0 {
			t.Errorf("resume=%v: programs %v were reported before their record reached the journal", resume, missing)
		}
	}
}

// hasRecord reports whether raw, a journal's bytes, holds a complete
// record line for program i: newline-terminated, with a parsable record.
func hasRecord(raw []byte, i int) bool {
	lines := strings.SplitAfter(string(raw), "\n")
	for _, line := range lines[1:] {
		var env struct {
			I int             `json:"i"`
			R json.RawMessage `json:"r"`
		}
		var rec fuzzRecord
		if strings.HasSuffix(line, "\n") && json.Unmarshal([]byte(line), &env) == nil &&
			env.I == i && json.Unmarshal(env.R, &rec) == nil {
			return true
		}
	}
	return false
}

func TestFuzzGracefulCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	started := 0
	withFuzzHook(t, func(i int, p *isa.Program) {
		mu.Lock()
		started++
		if started == 3 {
			cancel()
		}
		mu.Unlock()
	})

	opts := FuzzOptions{Programs: 10, Seed: 31, MaxInstr: 800, Workers: 1}
	path := filepath.Join(t.TempDir(), "fuzz.journal")
	copts := opts
	copts.Ctx = ctx
	copts.JournalPath = path
	if _, err := Fuzz(copts); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled campaign returned %v, want context.Canceled", err)
	}

	// The interrupted records survived; a resume completes the campaign
	// and matches an uninterrupted run.
	fuzzTestHook = nil
	ref, err := Fuzz(opts)
	if err != nil {
		t.Fatal(err)
	}
	done := journalRecords(t, path)
	if done == 0 {
		t.Fatal("cancelled campaign journaled nothing")
	}
	ropts := opts
	ropts.JournalPath = path
	resumed, err := Fuzz(ropts)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Resumed != done {
		t.Fatalf("Resumed=%d, journal holds %d", resumed.Resumed, done)
	}
	if got, want := fuzzSummaryString(resumed), fuzzSummaryString(ref); got != want {
		t.Fatalf("resumed summary diverged:\n got: %s\nwant: %s", got, want)
	}
}

package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersDefault(t *testing.T) {
	if got := Workers(0); got != runtime.NumCPU() {
		t.Errorf("Workers(0) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := Workers(-3); got != runtime.NumCPU() {
		t.Errorf("Workers(-3) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := Workers(7); got != 7 {
		t.Errorf("Workers(7) = %d, want 7", got)
	}
}

func TestMapOrderIndependentOfWorkers(t *testing.T) {
	const n = 100
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{1, 2, 8, 64} {
		got, err := MapCtx(context.Background(), workers, n, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestForEachRunsEverything(t *testing.T) {
	const n = 257
	var ran atomic.Int64
	if err := ForEachWorkerCtx(context.Background(), 8, n, func(_, _ int) error { ran.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != n {
		t.Errorf("ran %d of %d items", ran.Load(), n)
	}
}

func TestForEachZeroItems(t *testing.T) {
	if err := ForEachWorkerCtx(context.Background(), 4, 0, func(_, _ int) error { t.Fatal("fn called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestFirstErrorWinsSerial(t *testing.T) {
	// With one worker the loop is strictly serial: item 3 fails and item 4
	// must never run.
	var ran atomic.Int64
	err := ForEachWorkerCtx(context.Background(), 1, 10, func(_, i int) error {
		ran.Add(1)
		if i >= 3 {
			return fmt.Errorf("item %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "item 3" {
		t.Errorf("err = %v, want item 3", err)
	}
	if ran.Load() != 4 {
		t.Errorf("ran %d items, want 4", ran.Load())
	}
}

func TestLowestIndexErrorWins(t *testing.T) {
	// Every item fails; regardless of scheduling, the reported error must be
	// the lowest index that ran — and index 0 always runs.
	for _, workers := range []int{2, 8} {
		err := ForEachWorkerCtx(context.Background(), workers, 50, func(_, i int) error { return fmt.Errorf("item %d", i) })
		if err == nil || err.Error() != "item 0" {
			t.Errorf("workers=%d: err = %v, want item 0", workers, err)
		}
	}
}

func TestErrorCancelsRemainingWork(t *testing.T) {
	var ran atomic.Int64
	err := ForEachWorkerCtx(context.Background(), 2, 10_000, func(_, i int) error {
		ran.Add(1)
		return errors.New("boom")
	})
	if err == nil {
		t.Fatal("expected error")
	}
	// Cancellation is best-effort but must kick in long before the full list.
	if ran.Load() > 100 {
		t.Errorf("ran %d items after first error", ran.Load())
	}
}

func TestMapErrorReturnsNil(t *testing.T) {
	out, err := MapCtx(context.Background(), 4, 10, func(i int) (int, error) {
		if i == 5 {
			return 0, errors.New("boom")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if out != nil {
		t.Errorf("out = %v, want nil on error", out)
	}
}

func TestWorkersGreaterThanN(t *testing.T) {
	// More workers than items must clamp cleanly: every item runs exactly
	// once and results assemble in order.
	const n = 3
	var ran atomic.Int64
	out, err := MapCtx(context.Background(), 64, n, func(i int) (int, error) { ran.Add(1); return i * 10, nil })
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != n {
		t.Errorf("ran %d items, want %d", ran.Load(), n)
	}
	for i := range out {
		if out[i] != i*10 {
			t.Errorf("out[%d] = %d, want %d", i, out[i], i*10)
		}
	}
}

func TestPanicBecomesErrorSerial(t *testing.T) {
	// The serial fast path must contain panics exactly like the pooled path:
	// a *PanicError with the item index and a stack, not a crash.
	var ran atomic.Int64
	err := ForEachWorkerCtx(context.Background(), 1, 10, func(_, i int) error {
		ran.Add(1)
		if i == 2 {
			panic("kaboom")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if pe.Index != 2 || fmt.Sprint(pe.Value) != "kaboom" {
		t.Errorf("PanicError = {Index:%d Value:%v}, want {2 kaboom}", pe.Index, pe.Value)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "parallel") {
		t.Errorf("PanicError.Stack missing or implausible (%d bytes)", len(pe.Stack))
	}
	if ran.Load() != 3 {
		t.Errorf("ran %d items after serial panic, want 3", ran.Load())
	}
}

func TestPanicBecomesErrorParallel(t *testing.T) {
	err := ForEachWorkerCtx(context.Background(), 4, 100, func(_, i int) error {
		if i == 0 {
			panic(fmt.Errorf("wrapped %d", i))
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if pe.Index != 0 {
		t.Errorf("PanicError.Index = %d, want 0", pe.Index)
	}
}

func TestCancelledContextRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := ForEachWorkerCtx(ctx, workers, 50, func(_, i int) error { ran.Add(1); return nil })
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if ran.Load() != 0 {
			t.Errorf("workers=%d: ran %d items under a pre-cancelled context", workers, ran.Load())
		}
	}
}

func TestErrorOutranksCancellation(t *testing.T) {
	// Error-after-cancel ordering: item 0 fails, then the context is
	// cancelled. The item error must win — it carries the diagnosis; the
	// cancellation is the shutdown it triggered.
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		err := ForEachWorkerCtx(ctx, workers, 1000, func(_, i int) error {
			if i == 0 {
				cancel()
				return errors.New("root cause")
			}
			return nil
		})
		cancel()
		if err == nil || err.Error() != "root cause" {
			t.Errorf("workers=%d: err = %v, want root cause", workers, err)
		}
	}
}

func TestCancellationStopsNewItems(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := ForEachWorkerCtx(ctx, 2, 100_000, func(_, i int) error {
		if ran.Add(1) == 10 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if ran.Load() > 1000 {
		t.Errorf("ran %d items after cancellation", ran.Load())
	}
}

func TestMapWorkerStateDeterministicMerge(t *testing.T) {
	// Per-worker state partitioning is scheduling-dependent, but a
	// commutative fold over the states must not be. Each worker state
	// accumulates a sum and a count; the folded totals are compared across
	// worker counts and repetitions (races surface under -race).
	const n = 500
	fold := func(workers int) (sum, count int) {
		type state struct{ sum, count int }
		_, states, err := MapWorkerStateCtx(context.Background(), workers, n,
			func() *state { return &state{} },
			func(s *state, _, i int) (struct{}, error) {
				s.sum += i
				s.count++
				return struct{}{}, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range states {
			sum += s.sum
			count += s.count
		}
		return sum, count
	}
	wantSum, wantCount := fold(1)
	for _, workers := range []int{2, 4, 16} {
		for rep := 0; rep < 3; rep++ {
			sum, count := fold(workers)
			if sum != wantSum || count != wantCount {
				t.Fatalf("workers=%d rep=%d: folded (%d,%d), want (%d,%d)",
					workers, rep, sum, count, wantSum, wantCount)
			}
		}
	}
}

func TestMapWorkerStateCtxReturnsPartialStates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	type state struct{ count int }
	var ran atomic.Int64
	_, states, err := MapWorkerStateCtx(ctx, 2, 10_000,
		func() *state { return &state{} },
		func(s *state, _, i int) (struct{}, error) {
			if ran.Add(1) == 20 {
				cancel()
			}
			s.count++
			return struct{}{}, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	total := 0
	for _, s := range states {
		total += s.count
	}
	if total != int(ran.Load()) {
		t.Errorf("partial states hold %d items, workers ran %d", total, ran.Load())
	}
}

func TestWatchdogReportsStalls(t *testing.T) {
	w := NewWatchdog(30 * time.Millisecond)
	w.Begin(0) // stays running past the threshold
	w.Begin(1)
	w.End(1) // finishes promptly: must never be counted
	deadline := time.Now().Add(2 * time.Second)
	for w.Stalls() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never counted the stalled item")
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // several more scans of the same stall
	w.End(0)
	if n := w.Stop(); n != 1 {
		t.Errorf("Stalls = %d, want 1 (prompt worker counted, or stalled item counted twice)", n)
	}
}

func TestWatchdogReportsOncePerItem(t *testing.T) {
	w := NewWatchdog(20 * time.Millisecond)
	w.Begin(0)
	time.Sleep(150 * time.Millisecond)
	if n := w.Stalls(); n != 1 {
		t.Errorf("Stalls = %d after one long item, want 1", n)
	}
	w.End(0)
	w.Begin(0)
	time.Sleep(100 * time.Millisecond)
	if n := w.Stop(); n != 2 {
		t.Errorf("Stalls = %d after second long item, want 2", n)
	}
}

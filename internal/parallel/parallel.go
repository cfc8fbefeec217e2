// Package parallel provides the bounded worker pool underlying every batch
// entry point of the simulation harness: experiment suites (benchmark x mode
// pairs), fault-injection campaigns (one run per site), parameter sweeps
// (one run per sweep point) and fuzz sessions (one run per program). Each
// pipeline.Machine is fully independent, so these workloads are
// embarrassingly parallel; what the harness must guarantee is that
// parallelism never changes results. The pool therefore
//
//   - assembles results in input order, regardless of completion order;
//   - aggregates errors deterministically: the lowest-indexed error among
//     the items that ran wins (item 0 is always attempted when the context
//     is live, and with a single worker this is exactly the serial loop's
//     first error);
//   - cancels outstanding work after the first observed failure, errgroup
//     style, without ever mutating shared state from two goroutines.
//
// The pool is also the harness's first resilience boundary: every item runs
// behind a recover() barrier, so a panicking run surfaces as a structured
// *PanicError for that index (site, stack preserved) instead of tearing down
// the whole campaign's process. The pool also observes a context:
// cancellation stops new items from starting, and the context's error is
// reported only when no item error outranks it (see ForEachWorkerCtx for
// the exact ordering).
//
// Workers pull indices from a single atomic counter, so no work list is
// materialized and the pool costs O(workers) goroutines regardless of n.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers normalizes a requested worker count: values <= 0 select
// runtime.NumCPU() (the harness-wide default), everything else is returned
// unchanged.
func Workers(n int) int {
	if n <= 0 {
		return runtime.NumCPU()
	}
	return n
}

// PanicError is the structured form of a panic recovered from one work item.
// The pool converts panics to errors instead of letting them cross goroutine
// boundaries (where they would kill the process): batch callers can
// quarantine the one poisoned run and keep the campaign alive.
type PanicError struct {
	// Index is the work-item index whose function panicked.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

// Error summarizes the panic; the full stack stays in Stack.
func (e *PanicError) Error() string {
	return fmt.Sprintf("item %d panicked: %v", e.Index, e.Value)
}

// protect wraps one item invocation in a recover() boundary.
func protect(fn func(worker, i int) error, worker, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(worker, i)
}

// ForEachWorkerCtx invokes fn(worker, i) for every i in [0, n) from at
// most workers goroutines and blocks until all invocations finish; it is
// the pool's one core loop. The invoking worker's index [0, workers) is
// passed alongside the item index, so callers can keep per-worker scratch
// state (a reusable detection sink, a scratch machine) without locking: a
// worker runs its items sequentially, so state keyed by worker index is
// never touched concurrently. The serial fast path always reports worker
// 0. fn must be safe for concurrent invocation on distinct indices.
// Cancellation and error ordering:
//
//   - a panic inside fn becomes a *PanicError for that index, never a
//     process crash;
//   - once ctx is cancelled, no further items start (including item 0 if
//     cancellation preceded the call);
//   - after all in-flight items finish, the lowest-indexed item error among
//     the items that actually ran is returned; only when no item erred does
//     a cancelled context's error surface. Item errors outrank ctx.Err()
//     because they carry the actionable diagnosis — the cancellation is
//     usually a consequence of shutdown, not the cause of the failure.
func ForEachWorkerCtx(ctx context.Context, workers, n int, fn func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Serial fast path: no goroutines, so single-worker runs behave
		// exactly like the pre-parallel harness (including error timing) —
		// but panics are still contained, matching the pooled path.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := protect(fn, 0, i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
		errs   = make([]error, n)
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if ctx.Err() != nil {
					return
				}
				// Item 0 always runs (with a live context) so an all-fail
				// batch reports item 0's error no matter how the workers are
				// scheduled.
				if i > 0 && failed.Load() {
					return
				}
				if err := protect(fn, worker, i); err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// MapCtx invokes fn(i) for every i in [0, n) from at most workers
// goroutines and returns the results assembled in input order. Error and
// cancellation semantics match ForEachWorkerCtx: first failing index wins,
// outstanding work is cancelled, and a non-nil error means the result
// slice is nil.
func MapCtx[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out, _, err := MapWorkerStateCtx(ctx, workers, n, func() struct{} { return struct{}{} },
		func(_ struct{}, i int) (T, error) { return fn(i) })
	return out, err
}

// MapWorkerStateCtx is MapCtx with per-worker scratch state: newState
// builds one S per worker before any work starts, fn receives its worker's
// state, and the states are returned alongside the results so the caller
// can fold them back together deterministically (e.g. merging per-worker
// metrics registries or detection sinks in state order — the fold is only
// order-independent if the caller's merge operation is commutative, since
// which worker ran which item is not deterministic). On error or
// cancellation the states are still returned, holding whatever the
// workers accumulated before stopping — the graceful-shutdown path
// flushes those partial aggregates.
func MapWorkerStateCtx[S, T any](ctx context.Context, workers, n int, newState func() S, fn func(state S, i int) (T, error)) ([]T, []S, error) {
	states := make([]S, max(min(Workers(workers), n), 1))
	for i := range states {
		states[i] = newState()
	}
	out := make([]T, n)
	err := ForEachWorkerCtx(ctx, workers, n, func(worker, i int) (err error) {
		out[i], err = fn(states[worker], i)
		return err
	})
	if err != nil {
		return nil, states, err
	}
	return out, states, nil
}

package pipeline

import (
	"context"
	"testing"
	"time"
)

func TestRunContextCancellationInterrupts(t *testing.T) {
	// A long-running program under a passed deadline must stop at the
	// first context poll with Interrupted set — the stats describe a partial
	// run, Deadlocked stays false.
	p := sumProgram(1 << 20)
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	m, err := New(DefaultConfig(), ModeBlackJack, p, WithRunContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	st := m.Run(1 << 20)
	if !st.Interrupted {
		t.Fatal("run under a cancelled context completed without Interrupted")
	}
	if st.Deadlocked {
		t.Error("interrupted run misreported as deadlocked")
	}
	// The poll fires every ctxCheckMask+1 cycles, so the run must have
	// stopped at the first one.
	if st.Cycles != ctxCheckMask+1 {
		t.Errorf("interrupted run still took %d cycles", st.Cycles)
	}
}

func TestRunContextNilAndLiveComplete(t *testing.T) {
	// A live (never-cancelled) context must not perturb the run: same stats
	// as a context-free run of the same program.
	p := sumProgram(500)
	base, err := New(DefaultConfig(), ModeBlackJack, p, nil...)
	if err != nil {
		t.Fatal(err)
	}
	want := base.Run(1 << 20)

	m, err := New(DefaultConfig(), ModeBlackJack, p, WithRunContext(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	got := m.Run(1 << 20)
	if got.Interrupted || got.Deadlocked {
		t.Fatalf("live-context run flagged Interrupted=%v Deadlocked=%v", got.Interrupted, got.Deadlocked)
	}
	if got.Cycles != want.Cycles || got.Committed != want.Committed || got.StoreSignature != want.StoreSignature {
		t.Errorf("live-context run diverged: cycles %d vs %d, committed %v vs %v",
			got.Cycles, want.Cycles, got.Committed, want.Committed)
	}
}

func TestForkDropsRunContext(t *testing.T) {
	// A fork must not inherit the parent's budget: the parent's context is
	// cancelled after Snapshot, and the fork still runs to completion.
	p := sumProgram(2000)
	ctx, cancel := context.WithCancel(context.Background())
	m, err := New(DefaultConfig(), ModeBlackJack, p, WithRunContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	var cp *Checkpoint
	m.RunWithCheckpoints(1<<20, 512, func(m *Machine) {
		if cp == nil {
			cp = m.Snapshot()
		}
	})
	if cp == nil {
		t.Fatal("no checkpoint taken")
	}
	cancel()
	f := Fork(cp)
	st := f.Run(1 << 20)
	if st.Interrupted {
		t.Error("fork inherited the parent's cancelled run context")
	}
	if st.Deadlocked {
		t.Error("fork deadlocked")
	}
}

func TestRunUnderCancelledContextStepsNothing(t *testing.T) {
	// A context cancelled before the run starts stops it before its first
	// cycle, cold or forked: the machine steps nothing and reports
	// Interrupted.
	p := sumProgram(2000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, err := New(DefaultConfig(), ModeBlackJack, p, WithRunContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	if st := m.Run(1 << 20); !st.Interrupted || st.Cycles != 0 {
		t.Errorf("cold run: Interrupted=%v after %d cycles, want true after 0", st.Interrupted, st.Cycles)
	}

	src, err := New(DefaultConfig(), ModeBlackJack, p)
	if err != nil {
		t.Fatal(err)
	}
	var cp *Checkpoint
	src.RunWithCheckpoints(1<<20, 512, func(m *Machine) {
		if cp == nil {
			cp = m.Snapshot()
		}
	})
	f := Fork(cp, WithRunContext(ctx))
	hooked := false
	if st := f.RunWithCheckpoints(1<<20, 1, func(*Machine) { hooked = true }); !st.Interrupted || st.Cycles != 512 || hooked {
		t.Errorf("forked run: Interrupted=%v at cycle %d, hook ran %v; want true at the fork cycle 512, no hook",
			st.Interrupted, st.Cycles, hooked)
	}
}

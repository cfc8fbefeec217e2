// Package cli is the process plumbing the command-line tools share: the
// flag groups several tools declare, profiling, SIGINT/SIGTERM handling,
// named exit codes, and one exit path that runs registered cleanups (profile
// flushes) before the process ends.
//
// A tool registers its groups, calls Parse, defers Cleanup, and ends any
// non-zero exit through Exit, Exitf or Fatal:
//
//	cache := cli.CacheFlags()
//	cli.ProfileFlags()
//	cli.Parse("bjsim")
//	defer cli.Cleanup()
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"

	"blackjack/internal/sim"
)

// Exit codes every tool uses.
const (
	ExitError       = 1   // usage, I/O or simulation error
	ExitDeadlock    = 3   // the machine wedged before exhausting its budget
	ExitDiverged    = 4   // cache verification found a stored outcome diverging from live re-execution
	ExitFail        = 5   // a calibration claim FAILed
	ExitInterrupted = 130 // stopped by SIGINT or SIGTERM
)

var (
	tool       = "blackjack"
	cleanups   []func()
	resumeHint string
)

// Parse names the tool (the prefix of every message this package prints),
// parses the command line and starts the profiles the profile group asks
// for. Defer Cleanup right after it.
func Parse(name string) {
	tool = name
	flag.Parse()
	if profile != nil {
		if err := startProfiles(*profile.cpu, *profile.mem); err != nil {
			Fatal(err)
		}
	}
}

// RefuseUnread exits ExitError naming the first flag set on the command
// line that is not among reads, the space-separated names of the flags the
// tool's chosen mode reads: a flag the mode does not read would otherwise
// be silently ignored. A second mode's flag is refused the same way.
func RefuseUnread(mode, reads string) {
	flag.Visit(func(f *flag.Flag) {
		if !slices.Contains(strings.Fields(reads), f.Name) {
			Exitf(ExitError, "-%s is not read in %s mode", f.Name, mode)
		}
	})
}

// onExit registers f to run at exit, after every function registered later.
func onExit(f func()) { cleanups = append(cleanups, f) }

// Cleanup runs and forgets the registered cleanups, newest first. Deferred
// in main, it gives a normal return the same flushes Exit gives.
func Cleanup() {
	for len(cleanups) > 0 {
		f := cleanups[len(cleanups)-1]
		cleanups = cleanups[:len(cleanups)-1]
		f()
	}
}

// Exit runs the registered cleanups and ends the process with code.
func Exit(code int) {
	Cleanup()
	os.Exit(code)
}

// Logf prints one tool-prefixed line to stderr.
func Logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, tool+": "+format+"\n", args...)
}

// Exitf prints one tool-prefixed line to stderr and exits with code.
func Exitf(code int, format string, args ...any) {
	Logf(format, args...)
	Exit(code)
}

// SetResumeHint sets what Fatal adds to the interrupted message: where the
// completed work is kept and how to continue from it.
func SetResumeHint(hint string) { resumeHint = hint }

// Fatal ends the process for err with the code its cause names:
// ExitInterrupted (plus the resume hint, if any) for a SIGINT/SIGTERM
// cancellation, ExitDeadlock for a wedged machine, ExitError otherwise.
func Fatal(err error) {
	var dead *sim.DeadlockError
	switch {
	case errors.Is(err, context.Canceled) && resumeHint != "":
		Exitf(ExitInterrupted, "interrupted; %s", resumeHint)
	case errors.Is(err, context.Canceled):
		Exitf(ExitInterrupted, "interrupted")
	case errors.As(err, &dead):
		Exitf(ExitDeadlock, "%v", err)
	}
	Exitf(ExitError, "%v", err)
}

// SignalContext returns a context that SIGINT and SIGTERM both cancel, so
// the two signals take the same drain-and-exit path.
func SignalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

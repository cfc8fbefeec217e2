// Command bjserve runs the campaign service: an HTTP server that accepts
// declarative campaign/sweep/fuzz job specs (JSON), executes them
// with crash-safe job state and run stores under a state directory, and
// streams progress as NDJSON/SSE events.
//
// Usage:
//
//	bjserve -state-dir /var/lib/bjserve -addr :8080
//	curl -d @campaign.json localhost:8080/api/v1/jobs
//	curl localhost:8080/api/v1/jobs/j000001/events       # NDJSON stream
//	curl localhost:8080/api/v1/jobs/j000001/result
//
// The server is crash-safe: SIGKILL mid-campaign loses nothing — restart
// with the same -state-dir and every incomplete job resumes from its run
// store (-cache-dir, or the job's private store when there is none or the
// spec turns the cache off), at any -workers value, producing
// byte-identical outcome tables. One server at a time holds a state
// directory. SIGINT and SIGTERM trigger a bounded drain: stop admitting,
// checkpoint running jobs, exit 130 with a resume hint.
package main

import (
	"context"
	"errors"
	"flag"
	"net"
	"net/http"
	"time"

	"blackjack/internal/cli"
	"blackjack/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address")
		stateDir = flag.String("state-dir", "", "durable state directory for job specs, state journals, private run stores and results (required)")
		workers  = flag.Int("workers", 2, "executor slots (jobs running concurrently)")
		queueCap = flag.Int("queue", 64, "admission queue capacity; submissions beyond it get 429 + Retry-After")
		runPar   = flag.Int("run-parallel", 0, "default per-job worker fan-out when a spec leaves parallel unset (0 = NumCPU)")
		cacheDir = cli.CacheDirFlag()
		deadline = flag.Duration("default-deadline", 0, "per-attempt deadline for jobs whose spec has none (0 = unbounded)")
		drainFor = flag.Duration("drain-timeout", 30*time.Second, "bounded-drain budget on SIGINT/SIGTERM before exiting anyway")
	)
	cli.Parse("bjserve")
	if *stateDir == "" {
		cli.Fatal(errors.New("-state-dir is required (job state must survive restarts)"))
	}

	srv, err := serve.New(serve.Options{
		StateDir:        *stateDir,
		Workers:         *workers,
		QueueCap:        *queueCap,
		RunParallel:     *runPar,
		CacheDir:        *cacheDir,
		DefaultDeadline: *deadline,
	})
	if err != nil {
		cli.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		cli.Fatal(err)
	}
	cli.Logf("listening on %s, state dir %s", ln.Addr(), *stateDir)

	httpSrv := &http.Server{Handler: srv.Handler()}
	httpErr := make(chan error, 1)
	go func() { httpErr <- httpSrv.Serve(ln) }()
	srv.Start()

	// SIGINT and SIGTERM both take the bounded drain: stop admitting,
	// checkpoint running jobs (their finished runs are already stored),
	// exit 130 with a resume hint.
	ctx, stop := cli.SignalContext()
	defer stop()
	select {
	case err := <-httpErr:
		cli.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	cli.Logf("draining (budget %s)...", *drainFor)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	httpSrv.Shutdown(drainCtx)
	incomplete := srv.Drain(drainCtx)
	if incomplete > 0 {
		cli.Logf("%d jobs incomplete; restart with -state-dir %s to resume them", incomplete, *stateDir)
	} else {
		cli.Logf("all jobs settled")
	}
	cli.Exit(cli.ExitInterrupted)
}

// Package serve turns the batch simulation harness into a long-running,
// crash-safe campaign service. It accepts declarative campaign/sweep/fuzz
// job specs (JSON), validates them on admission with typed
// field-level errors, runs them on a bounded executor whose per-job fan-out
// is the same internal/parallel pool the CLIs use, and streams progress as
// NDJSON/SSE events, one per run once the run is in the job's run store.
//
// Robustness is the package's contract, not a feature:
//
//   - Admission control: the queue is bounded; over-capacity submissions are
//     rejected with 429 and a Retry-After hint instead of growing without
//     bound.
//   - Fairness: a weighted stride scheduler interleaves tenants, so one
//     tenant's large sweep cannot starve another's small campaign.
//   - Resilience: every job runs under the harness Resilience envelope
//     (per-run isolation, escalating retry budgets) plus a per-job
//     deadline; transient job failures are requeued with exponential
//     backoff, deterministic ones are quarantined.
//   - Crash safety: each job persists as a journal-backed state machine
//     (queued → running → draining → done/failed/quarantined) under the
//     state directory, which one server at a time holds (ErrLocked). Every
//     run is durable in the job's run store — the shared store, or a
//     private one under the job's directory — before its progress event
//     fires. SIGKILL mid-campaign loses nothing: restart resumes every
//     incomplete job at any worker count and completed work is never
//     re-simulated.
//
// Output parity: a job's rendered outcome table is byte-identical to the
// stdout of the equivalent batch CLI invocation, whatever mixture of live
// execution and run-store hits produced it.
package serve

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"blackjack/internal/fault"
	"blackjack/internal/pipeline"
	"blackjack/internal/prog"
)

// JobType selects a job's execution shape.
type JobType string

const (
	// JobCampaign is one fault-injection campaign: benchmark × mode ×
	// site list, one run per site.
	JobCampaign JobType = "campaign"
	// JobSweep is a grid of campaigns (benchmarks × modes); every run of
	// every campaign is stored on its own, so a sweep resumes at run
	// granularity.
	JobSweep JobType = "sweep"
	// JobFuzz is a differential-fuzzing session over n random programs.
	JobFuzz JobType = "fuzz"
)

// Spec is the declarative job description clients submit. Zero values mean
// "harness default"; Normalize resolves them. The wire names (json tags) are
// the spec language — Parse rejects unknown fields with a typed error that
// names the nearest valid field.
type Spec struct {
	// Name is an optional display label; it never affects execution.
	Name string `json:"name"`
	// Tenant is the fairness bucket the job is charged to.
	Tenant string `json:"tenant"`
	// Weight is the tenant's fair-share weight for this job (>= 1); a
	// weight-2 tenant drains twice as fast as a weight-1 tenant under
	// contention.
	Weight int `json:"weight"`
	// Type is the job shape: campaign, sweep, or fuzz.
	Type JobType `json:"type"`

	// Benchmark names the workload for campaign and fuzz jobs.
	Benchmark string `json:"benchmark"`
	// Benchmarks lists the sweep grid's workloads (sweep jobs only).
	Benchmarks []string `json:"benchmarks"`
	// Mode is the machine variant for campaign jobs.
	Mode string `json:"mode"`
	// Modes lists the sweep grid's variants (sweep jobs only).
	Modes []string `json:"modes"`
	// Instructions is the committed-instruction budget per run.
	Instructions int `json:"instructions"`

	// FaultKind selects the fault model for campaign/sweep jobs:
	// permanent, transient, intermittent, multi-bit, control-flow.
	FaultKind string `json:"fault_kind"`
	// Sites selects the campaign site list: standard or latent.
	Sites string `json:"sites"`

	// Programs is the fuzz session's program count.
	Programs int `json:"programs"`
	// Seed derives every fuzz program deterministically.
	Seed uint64 `json:"seed"`
	// Variant restricts a fuzz session to one pipeline variant (empty:
	// all five).
	Variant string `json:"variant"`

	// Parallel is the per-job worker fan-out (0 = server default).
	// Results are identical at any value.
	Parallel int `json:"parallel"`
	// Deadline bounds the job's wall-clock time per attempt, e.g. "3m".
	// An exceeded deadline requeues the job with exponential backoff.
	Deadline Duration `json:"deadline"`
	// Retries is the job-level requeue budget for transient failures.
	Retries int `json:"retries"`
	// RunTimeout is the per-run wall-clock budget inside the job.
	RunTimeout Duration `json:"run_timeout"`
	// RunRetries re-runs a failing injection with doubling budgets before
	// quarantining it (the PR-5 Resilience envelope).
	RunRetries int `json:"run_retries"`

	// Cache is the run-cache policy: "on" (default), "off", or "verify"
	// (serve hits but re-execute a sample and fail on divergence). "on"
	// and "verify" run the job on the server's shared store, if it has
	// one; "off", or a server without one, runs it on a private store
	// under the job's directory, which nothing else reads. Either store
	// is how the job resumes after a requeue, a drain or a crash.
	Cache string `json:"cache"`
	// CacheVerify is the verified fraction of cache hits under
	// cache: verify (0 defaults to 0.1).
	CacheVerify float64 `json:"cache_verify"`
}

// Duration is a time.Duration that unmarshals from Go duration strings
// ("90s", "3m") or bare numbers (nanoseconds) and marshals as a string.
type Duration time.Duration

// MarshalJSON renders the duration as a Go duration string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", time.Duration(d))), nil
}

// UnmarshalJSON accepts "3m" / "90s" strings or integer nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	s := strings.TrimSpace(string(b))
	if strings.HasPrefix(s, "\"") {
		v, err := time.ParseDuration(strings.Trim(s, "\""))
		if err != nil {
			return err
		}
		*d = Duration(v)
		return nil
	}
	var ns int64
	if _, err := fmt.Sscanf(s, "%d", &ns); err != nil {
		return fmt.Errorf("bad duration %s", s)
	}
	*d = Duration(ns)
	return nil
}

// SpecError is a typed, field-addressed admission failure. Every invalid
// spec reports the offending field by its wire name, the rejected value,
// why, and (for unknown fields) the nearest valid name.
type SpecError struct {
	// Field is the wire name of the offending field ("fault_kind"), or
	// the unknown name as submitted.
	Field string `json:"field"`
	// Value is the rejected value rendered as text (empty for unknown
	// fields).
	Value string `json:"value,omitempty"`
	// Reason says what was wrong.
	Reason string `json:"reason"`
	// Suggestion is the nearest valid field or value name, when one is
	// close enough to be worth proposing.
	Suggestion string `json:"suggestion,omitempty"`
}

func (e *SpecError) Error() string {
	msg := fmt.Sprintf("spec: field %q: %s", e.Field, e.Reason)
	if e.Value != "" {
		msg = fmt.Sprintf("spec: field %q = %q: %s", e.Field, e.Value, e.Reason)
	}
	if e.Suggestion != "" {
		msg += fmt.Sprintf(" (did you mean %q?)", e.Suggestion)
	}
	return msg
}

// specFields is the authoritative wire-name list, used for unknown-field
// detection and nearest-name suggestions.
var specFields = []string{
	"name", "tenant", "weight", "type",
	"benchmark", "benchmarks", "mode", "modes", "instructions",
	"fault_kind", "sites",
	"programs", "seed", "variant",
	"parallel", "deadline", "retries", "run_timeout", "run_retries",
	"cache", "cache_verify",
}

// nearestField returns the closest known field to name, or "" when nothing
// is close enough (edit distance more than half the name's length).
func nearestField(name string, fields []string) string {
	best, bestDist := "", len(name)/2+1
	for _, f := range fields {
		if d := editDistance(name, f); d < bestDist {
			best, bestDist = f, d
		}
	}
	return best
}

// editDistance is the Levenshtein distance between two short ASCII names.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// Normalize fills harness defaults into zero-valued fields. It does not
// validate; Validate runs on the normalized spec.
func (s *Spec) Normalize() {
	if s.Tenant == "" {
		s.Tenant = "default"
	}
	if s.Weight <= 0 {
		s.Weight = 1
	}
	if s.Type == "" {
		s.Type = JobCampaign
	}
	if s.Benchmark == "" && s.Type != JobSweep {
		s.Benchmark = "gzip"
	}
	if s.Mode == "" {
		s.Mode = "blackjack"
	}
	if s.Instructions <= 0 {
		s.Instructions = 30_000
	}
	if s.FaultKind == "" {
		s.FaultKind = "permanent"
	}
	if s.Sites == "" {
		s.Sites = "standard"
	}
	if s.Type == JobSweep {
		if len(s.Benchmarks) == 0 {
			if s.Benchmark != "" {
				s.Benchmarks = []string{s.Benchmark}
			} else {
				s.Benchmarks = []string{"gzip"}
			}
		}
		if len(s.Modes) == 0 {
			s.Modes = []string{s.Mode}
		}
	}
	if s.Type == JobFuzz && s.Programs <= 0 {
		s.Programs = 100
	}
	if s.Type == JobFuzz && s.Seed == 0 {
		s.Seed = 1
	}
	if s.Cache == "" {
		s.Cache = "on"
	}
	if s.Cache == "verify" && s.CacheVerify <= 0 {
		s.CacheVerify = 0.1
	}
}

// Validate checks the normalized spec against the harness vocabulary and
// returns the first violation as a typed *SpecError.
func (s *Spec) Validate() error {
	switch s.Type {
	case JobCampaign, JobSweep, JobFuzz:
	default:
		return &SpecError{Field: "type", Value: string(s.Type),
			Reason:     "unknown job type (want campaign, sweep, or fuzz)",
			Suggestion: nearestField(string(s.Type), []string{"campaign", "sweep", "fuzz"})}
	}
	benches := prog.BenchmarkNames()
	checkBench := func(field, name string) error {
		for _, b := range benches {
			if b == name {
				return nil
			}
		}
		return &SpecError{Field: field, Value: name, Reason: "unknown benchmark",
			Suggestion: nearestField(name, benches)}
	}
	switch s.Type {
	case JobSweep:
		for _, b := range s.Benchmarks {
			if err := checkBench("benchmarks", b); err != nil {
				return err
			}
		}
		for _, m := range s.Modes {
			if _, err := pipeline.ParseMode(m); err != nil {
				return &SpecError{Field: "modes", Value: m, Reason: "unknown machine mode",
					Suggestion: nearestField(m, modeNames())}
			}
		}
	default:
		if err := checkBench("benchmark", s.Benchmark); err != nil {
			return err
		}
		if _, err := pipeline.ParseMode(s.Mode); err != nil {
			return &SpecError{Field: "mode", Value: s.Mode, Reason: "unknown machine mode",
				Suggestion: nearestField(s.Mode, modeNames())}
		}
	}
	kind, err := fault.ParseKind(s.FaultKind)
	if err != nil {
		return &SpecError{Field: "fault_kind", Value: s.FaultKind, Reason: "unknown fault kind",
			Suggestion: nearestField(s.FaultKind, faultKindNames())}
	}
	switch s.Sites {
	case "standard":
	case "latent":
		if kind != fault.KindPermanent {
			return &SpecError{Field: "sites", Value: "latent",
				Reason: fmt.Sprintf("the latent campaign models permanent defects (fault_kind %q is incompatible)", s.FaultKind)}
		}
	default:
		return &SpecError{Field: "sites", Value: s.Sites, Reason: "unknown site list (want standard or latent)",
			Suggestion: nearestField(s.Sites, []string{"standard", "latent"})}
	}
	if s.Type == JobFuzz && s.Variant != "" {
		valid := []string{"single", "srt", "blackjack-ns", "blackjack", "blackjack+merge"}
		ok := false
		for _, v := range valid {
			if v == s.Variant {
				ok = true
			}
		}
		if !ok {
			return &SpecError{Field: "variant", Value: s.Variant, Reason: "unknown fuzz variant",
				Suggestion: nearestField(s.Variant, valid)}
		}
	}
	switch s.Cache {
	case "on", "off", "verify":
	default:
		return &SpecError{Field: "cache", Value: s.Cache, Reason: "unknown cache policy (want on, off, or verify)",
			Suggestion: nearestField(s.Cache, []string{"on", "off", "verify"})}
	}
	if s.CacheVerify < 0 || s.CacheVerify > 1 {
		return &SpecError{Field: "cache_verify", Value: fmt.Sprintf("%g", s.CacheVerify),
			Reason: "verification fraction must be in [0,1]"}
	}
	if s.Weight > 1_000 {
		return &SpecError{Field: "weight", Value: fmt.Sprint(s.Weight),
			Reason: "fair-share weight must be in [1,1000]"}
	}
	if s.Retries < 0 || s.Retries > 16 {
		return &SpecError{Field: "retries", Value: fmt.Sprint(s.Retries),
			Reason: "job requeue budget must be in [0,16]"}
	}
	if s.RunRetries < 0 || s.RunRetries > 16 {
		return &SpecError{Field: "run_retries", Value: fmt.Sprint(s.RunRetries),
			Reason: "per-run retry budget must be in [0,16]"}
	}
	if d := time.Duration(s.Deadline); d < 0 {
		return &SpecError{Field: "deadline", Value: d.String(), Reason: "deadline cannot be negative"}
	}
	if d := time.Duration(s.RunTimeout); d < 0 {
		return &SpecError{Field: "run_timeout", Value: d.String(), Reason: "run timeout cannot be negative"}
	}
	return nil
}

func modeNames() []string {
	return []string{"single", "srt", "blackjack-ns", "blackjack"}
}

func faultKindNames() []string {
	kinds := fault.Kinds()
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.String()
	}
	sort.Strings(names)
	return names
}

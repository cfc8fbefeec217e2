package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// State is a job's position in its lifecycle. Transitions are append-only
// records in the job's state journal, so the last well-formed line is the
// truth after any crash.
type State string

const (
	// StateQueued: admitted, waiting for an executor slot.
	StateQueued State = "queued"
	// StateRunning: an executor slot is simulating the job's runs.
	StateRunning State = "running"
	// StateDraining: the server is shutting down and the job is being
	// checkpointed; on restart a draining job is requeued.
	StateDraining State = "draining"
	// StateDone: completed; the rendered outcome table is in result.txt.
	StateDone State = "done"
	// StateFailed: exhausted its requeue budget on transient failures, or
	// failed at execution in a way admission could not catch.
	StateFailed State = "failed"
	// StateQuarantined: failed deterministically (same error across
	// attempts with budget to spare) — retrying would waste capacity.
	StateQuarantined State = "quarantined"
)

// terminal reports whether a state ends the job's lifecycle.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateQuarantined
}

// Transition is one persisted state change.
type Transition struct {
	State State `json:"state"`
	// At is the wall-clock transition time (RFC3339Nano).
	At time.Time `json:"at"`
	// Attempt counts executor attempts (0 before the first run).
	Attempt int `json:"attempt"`
	// Detail carries the human-readable reason for failed / quarantined /
	// requeued transitions.
	Detail string `json:"detail,omitempty"`
}

// Job is the in-memory view of one persisted job.
type Job struct {
	ID     string `json:"id"`
	Spec   *Spec  `json:"spec"`
	State  State  `json:"state"`
	Detail string `json:"detail,omitempty"`
	// Attempt is the number of executor attempts so far.
	Attempt int `json:"attempt"`
	// Submitted is the admission time.
	Submitted time.Time `json:"submitted"`
	// Updated is the latest transition time.
	Updated time.Time `json:"updated"`
	// Done counts completed runs (store-served or live).
	Done int `json:"done"`
	// Total is the job's run count (0 until first planned).
	Total int `json:"total"`
}

// jobDir is the job's slice of the state directory:
//
//	jobs/<id>/spec.json     the admitted spec (atomic write, immutable)
//	jobs/<id>/state.jsonl   append-only transition journal (fsync'd)
//	jobs/<id>/runs/         private run store (cache: off, or no shared store)
//	jobs/<id>/result.txt    rendered outcome tables (atomic write)
func jobDir(stateDir, id string) string { return filepath.Join(stateDir, "jobs", id) }

// persistSpec writes the admitted spec once, atomically: temp file + rename
// so a crash never leaves a half-written spec.
func persistSpec(dir string, spec *Spec) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	return atomicWrite(filepath.Join(dir, "spec.json"), append(buf, '\n'))
}

// atomicWrite is temp + fsync + rename in the target's directory.
func atomicWrite(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// appendTransition durably appends one state record to the job's state
// journal. Appends are fsync'd: after a SIGKILL the journal's last
// well-formed line is the job's true state, and a torn final line (crash
// mid-append) is ignored by loadTransitions.
func appendTransition(dir string, t Transition) error {
	f, err := os.OpenFile(filepath.Join(dir, "state.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	buf, err := json.Marshal(t)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(buf, '\n')); err != nil {
		return err
	}
	return f.Sync()
}

// loadTransitions reads a job's state journal, healing a torn tail: a final
// line without a newline or with invalid JSON (the crash wrote part of a
// record) is dropped rather than failing the load.
func loadTransitions(dir string) ([]Transition, error) {
	f, err := os.Open(filepath.Join(dir, "state.jsonl"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var ts []Transition
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		var t Transition
		if err := json.Unmarshal(sc.Bytes(), &t); err != nil {
			break // torn or corrupt tail: everything before it is the truth
		}
		ts = append(ts, t)
	}
	if err := sc.Err(); err != nil && !errors.Is(err, bufio.ErrTooLong) {
		return nil, err
	}
	return ts, nil
}

// loadJob reconstructs one job from its directory. Jobs whose spec is
// missing or unreadable are reported as errors; the caller decides whether
// to skip or surface them.
func loadJob(stateDir, id string) (*Job, error) {
	dir := jobDir(stateDir, id)
	buf, err := os.ReadFile(filepath.Join(dir, "spec.json"))
	if err != nil {
		return nil, fmt.Errorf("job %s: %w", id, err)
	}
	var spec Spec
	if err := json.Unmarshal(buf, &spec); err != nil {
		return nil, fmt.Errorf("job %s: corrupt spec: %w", id, err)
	}
	spec.Normalize()
	j := &Job{ID: id, Spec: &spec, State: StateQueued}
	ts, err := loadTransitions(dir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("job %s: %w", id, err)
	}
	for _, t := range ts {
		j.State, j.Attempt, j.Updated = t.State, t.Attempt, t.At
		if t.Detail != "" {
			j.Detail = t.Detail
		}
		if j.Submitted.IsZero() {
			j.Submitted = t.At
		}
	}
	return j, nil
}

// loadJobs scans the state directory for every persisted job, sorted by ID
// (IDs embed a monotonic sequence, so this is admission order).
func loadJobs(stateDir string) ([]*Job, error) {
	entries, err := os.ReadDir(filepath.Join(stateDir, "jobs"))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var jobs []*Job
	for _, e := range entries {
		if !e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		j, err := loadJob(stateDir, e.Name())
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].ID < jobs[k].ID })
	return jobs, nil
}

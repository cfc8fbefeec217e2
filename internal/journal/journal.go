// Package journal provides a positional, fsync-batched JSONL run log. A
// journal is a JSONL file: one header line identifying the workload (kind +
// a key fingerprinting the parameters that determine run identity),
// followed by one envelope line per completed work item. Appends are
// batched and fsync'd so that after a crash or SIGKILL at most the last
// unsynced batch is lost — and a torn trailing line (the write that was in
// flight when the process died) is tolerated and discarded on resume.
//
// No campaign, fuzz session or served job journals any more: they resume
// from the content-addressed run store (internal/runcache), whose cells
// cannot be served to a run they were not written for. The package remains
// only for the benchmark's journal.append_sync_s probe (bjbench/serve.go)
// and goes once that probe times the store write instead. It takes no
// lock: a journal has one writer by construction.
package journal

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"blackjack/internal/runcache"
)

// Header is the first line of every journal file.
type Header struct {
	// Kind names the workload family, e.g. "campaign" or "fuzz".
	Kind string `json:"kind"`
	// Key fingerprints the parameters that define run identity. Resume
	// refuses a journal whose key does not match the live configuration.
	Key uint64 `json:"key"`
	// Version is the record-schema version; bumped when a record's meaning
	// changes incompatibly.
	Version int `json:"version"`
	// Parts are the human-readable `key=value` identity parts the Key was
	// folded from. Purely diagnostic: a mismatch report can then say which
	// parameter changed instead of only that the folded keys differ. Not
	// compared for resume admission (Key already fingerprints them).
	Parts []string `json:"parts,omitempty"`
}

// matches reports whether two headers describe the same workload. Parts
// are diagnostic payload, not identity: only Kind, Key and Version gate
// resume.
func (h Header) matches(o Header) bool {
	return h.Kind == o.Kind && h.Key == o.Key && h.Version == o.Version
}

// diffParts describes the first difference between two part lists ("" when
// they are identical or either side was written without parts).
func diffParts(have, want []string) string {
	if len(have) == 0 || len(want) == 0 {
		return ""
	}
	if d := runcache.DiffParts(have, want); d != "" {
		return "; " + d
	}
	return ""
}

// envelope is one completed-run line: the item index plus the caller's
// record.
type envelope struct {
	I int             `json:"i"`
	R json.RawMessage `json:"r"`
}

// SyncEvery is how many appended records may accumulate before the journal
// fsyncs. Small enough that a crash loses at most a few seconds of cheap
// runs; large enough that fsync never dominates a fast campaign.
const SyncEvery = 32

// Journal is an append-only JSONL run log plus the records it replayed on
// open. Append is safe for concurrent use; Open/Close are not.
type Journal[R any] struct {
	done map[int]R // records present when the journal was opened

	mu        sync.Mutex
	f         *os.File
	w         *bufio.Writer
	pending   int
	syncEvery int // 0 selects the SyncEvery default
	closed    bool
}

// SetSyncEvery overrides the fsync cadence: every n appended records the
// journal flushes and fsyncs. n = 1 makes each completed run durable before
// Append returns — the service posture, where a SIGKILL at any instant must
// lose nothing. n <= 0 restores the SyncEvery default (batch-CLI posture:
// graceful shutdowns flush, a hard crash loses at most one cheap batch).
func (j *Journal[R]) SetSyncEvery(n int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.syncEvery = n
}

// ErrKeyMismatch is returned by Open when an existing journal's header does
// not match the requested kind/key/version — the journal belongs to a
// different workload and resuming from it would alias unrelated runs.
var ErrKeyMismatch = errors.New("journal: header does not match this workload")

// Open opens (creating if absent) the journal at path for the given
// workload identity and returns the journal plus the records already
// present, keyed by item index. The journal keeps those records for replay
// (see Replayed); the returned map is the same one, read-only. A fresh file
// gets the header written immediately; an existing file is validated
// against hdr and scanned. A torn trailing line — the in-flight write of a
// crashed process — is discarded; corruption anywhere else is an error.
func Open[R any](path string, hdr Header) (*Journal[R], map[int]R, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	j, err := open[R](f, hdr)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return j, j.done, nil
}

// open is Open past the file open; the caller closes f on error.
func open[R any](f *os.File, hdr Header) (*Journal[R], error) {
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	j := &Journal[R]{done: map[int]R{}, f: f, w: bufio.NewWriter(f)}
	if info.Size() == 0 {
		line, err := json.Marshal(hdr)
		if err != nil {
			return nil, err
		}
		if _, err := f.Write(append(line, '\n')); err != nil {
			return nil, err
		}
		return j, f.Sync()
	}
	done, good, err := scan[R](f, hdr)
	if err != nil {
		return nil, err
	}
	j.done = done
	// Truncate any torn trailing line and position the write cursor at the
	// end of the last intact record, so the next append starts a clean line.
	if err := f.Truncate(good); err != nil {
		return nil, err
	}
	_, err = f.Seek(good, io.SeekStart)
	return j, err
}

// Replayed returns the record item i completed with in an earlier session,
// if the journal held one when opened.
func (j *Journal[R]) Replayed(i int) (R, bool) {
	r, ok := j.done[i]
	return r, ok
}

// scan reads and validates an existing journal, returning the completed
// records and the byte offset just past the last intact line.
func scan[R any](f *os.File, want Header) (map[int]R, int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, err
	}
	rd := bufio.NewReaderSize(f, 64*1024)
	var good int64
	readLine := func() ([]byte, bool, error) {
		line, err := rd.ReadBytes('\n')
		switch {
		case err == nil:
			return line[:len(line)-1], true, nil
		case errors.Is(err, io.EOF):
			// No trailing newline: the line was torn mid-write.
			return line, false, nil
		default:
			return nil, false, err
		}
	}
	line, complete, err := readLine()
	if err != nil {
		return nil, 0, fmt.Errorf("journal: reading header: %w", err)
	}
	var hdr Header
	if !complete || json.Unmarshal(line, &hdr) != nil {
		return nil, 0, fmt.Errorf("journal: bad header line")
	}
	if !hdr.matches(want) {
		return nil, 0, fmt.Errorf("%w: file has %s/%#x/v%d, workload is %s/%#x/v%d%s",
			ErrKeyMismatch, hdr.Kind, hdr.Key, hdr.Version, want.Kind, want.Key, want.Version,
			diffParts(hdr.Parts, want.Parts))
	}
	good = int64(len(line)) + 1
	done := make(map[int]R)
	lineno := 1
	for {
		line, complete, err := readLine()
		if err != nil {
			return nil, 0, fmt.Errorf("journal: scanning: %w", err)
		}
		if len(line) == 0 && !complete {
			break // clean EOF
		}
		lineno++
		var env envelope
		var rec R
		bad := json.Unmarshal(line, &env) != nil
		if !bad {
			bad = json.Unmarshal(env.R, &rec) != nil
		}
		if bad {
			// A torn final line is the expected residue of a crash mid-write;
			// anything earlier is real corruption.
			if !complete {
				break
			}
			return nil, 0, fmt.Errorf("journal: corrupt record at line %d", lineno)
		}
		if !complete {
			// Parsed but unterminated: treat as torn — the fsync contract
			// only covers complete lines.
			break
		}
		done[env.I] = rec
		good += int64(len(line)) + 1
	}
	return done, good, nil
}

// Append records that item i completed with record r. The write is buffered;
// every SyncEvery appends the buffer is flushed and fsync'd, so a crash
// loses at most the last unsynced batch.
func (j *Journal[R]) Append(i int, r R) error {
	raw, err := json.Marshal(r)
	if err != nil {
		return err
	}
	line, err := json.Marshal(envelope{I: i, R: raw})
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("journal: append after Close")
	}
	if _, err := j.w.Write(append(line, '\n')); err != nil {
		return err
	}
	j.pending++
	every := j.syncEvery
	if every <= 0 {
		every = SyncEvery
	}
	if j.pending >= every {
		return j.syncLocked()
	}
	return nil
}

// Sync flushes buffered records and fsyncs the file. Graceful-shutdown
// paths call this before exiting so an interrupted session journals every
// run that actually finished.
func (j *Journal[R]) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	return j.syncLocked()
}

func (j *Journal[R]) syncLocked() error {
	if err := j.w.Flush(); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.pending = 0
	return nil
}

// Close flushes, fsyncs and closes the journal file.
func (j *Journal[R]) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	err := j.syncLocked()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

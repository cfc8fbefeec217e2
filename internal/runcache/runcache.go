package runcache

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"blackjack/internal/obs"
)

// FormatEpoch is the cache-format epoch. Bump it whenever the semantics of
// a cached outcome change (record schema, classification rules, pipeline
// timing) so every stale entry is refused on read and refilled live.
// 3: campaign records carry their path reason, and keys follow the shared
// campaign identity schema. 4: campaign plans fork and fast-forward from a
// 500-cycle grid whatever the checkpoint interval, so a record's fork
// cycle, fast-forward handoff and window figures differ from epoch 3's
// under the same key. 5: a spent campaign run compares against every kept
// grid snapshot, not only at multiples of the interval, so a converged
// record's cut cycle, and with it the simulated cycles it replays, differs
// from epoch 4's under the same key. 6: every campaign run stops at its
// first detection, so detected records differ from epoch 5's. Fuzz-session
// cells (one per program) follow the same rule: a change to what a fuzz
// record means bumps the epoch too.
const FormatEpoch = 6

// EnvDir is the environment variable that opts a machine into caching:
// when set, the CLIs default -cache-dir to its value.
const EnvDir = "BLACKJACK_CACHE_DIR"

// DefaultMaxBytes is the default size bound for a store before LRU
// eviction kicks in.
const DefaultMaxBytes int64 = 256 << 20

// DefaultDir returns the environment opt-in cache directory ("" when the
// machine has not opted in).
func DefaultDir() string { return os.Getenv(EnvDir) }

// envelope is the on-disk shape of one entry: the format epoch, the entry's
// own content address (self-identifying, so a renamed or cross-linked file
// is detected), a CRC-32 over the payload, and the payload itself.
type envelope struct {
	Epoch int             `json:"epoch"`
	ID    string          `json:"id"`
	CRC   uint32          `json:"crc"`
	Data  json.RawMessage `json:"data"`
}

// Stats is a point-in-time snapshot of store counters.
type Stats struct {
	Hits              uint64
	Misses            uint64
	Puts              uint64
	Evictions         uint64
	Corrupt           uint64
	Bytes             uint64
	VerifyRuns        uint64
	VerifyDivergences uint64
	// PutErrors counts failed Puts: entries the store could not make
	// durable, which a later run simulates again.
	PutErrors uint64
}

// Store is an on-disk content-addressable store of run outcomes. Entries
// are addressed by Identity.ID (SHA-256), written atomically and durably
// (write-temp-fsync-rename, then fsync the directory) with a checksummed
// envelope, and evicted oldest-mtime-first when the store exceeds its size
// bound; an evicted cell is simulated again on its next request, which
// costs time, never results. Get and Put are safe for concurrent use.
type Store struct {
	dir      string
	maxBytes int64

	mu       sync.Mutex // guards curBytes and eviction walks
	curBytes int64

	hits      atomic.Uint64
	misses    atomic.Uint64
	puts      atomic.Uint64
	evictions atomic.Uint64
	corrupt   atomic.Uint64
	vruns     atomic.Uint64
	vdiverge  atomic.Uint64
	putErrs   atomic.Uint64
}

// Open opens (creating if needed) the store rooted at dir. maxBytes <= 0
// selects DefaultMaxBytes. The existing contents are sized so eviction
// accounting starts accurate.
func Open(dir string, maxBytes int64) (*Store, error) {
	if dir == "" {
		return nil, errors.New("runcache: empty cache directory")
	}
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runcache: %w", err)
	}
	s := &Store{dir: dir, maxBytes: maxBytes}
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("runcache: sizing %s: %w", dir, err)
	}
	s.curBytes = total
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) entryPath(sha string) string {
	return filepath.Join(s.dir, sha[:2], sha+".json")
}

// Get looks up the entry for id and, on a valid hit, unmarshals its payload
// into out and returns true. Entries that are unreadable, truncated,
// bit-flipped, mis-addressed, or from a different format epoch are counted
// corrupt, removed, and reported as misses — a damaged cache degrades to
// live execution, never to a served wrong answer.
func (s *Store) Get(id *Identity, out any) bool {
	sha := id.ID()
	path := s.entryPath(sha)
	blob, err := os.ReadFile(path)
	if err != nil {
		s.misses.Add(1)
		return false
	}
	var env envelope
	valid := json.Unmarshal(blob, &env) == nil &&
		env.Epoch == FormatEpoch &&
		env.ID == sha &&
		crc32.ChecksumIEEE(env.Data) == env.CRC &&
		json.Unmarshal(env.Data, out) == nil
	if !valid {
		s.corrupt.Add(1)
		s.misses.Add(1)
		s.removeEntry(path)
		return false
	}
	s.hits.Add(1)
	now := time.Now()
	os.Chtimes(path, now, now) // LRU touch; best-effort
	return true
}

// Put stores v as the entry for id, replacing any existing entry, then
// evicts oldest entries if the store exceeds its size bound. The entry is
// durable when Put returns: its file is fsync'd before the rename and its
// directory after, so a caller that reports a stored cell only after Put
// loses no reported cell to a crash. A failed Put is counted in
// Stats.PutErrors.
func (s *Store) Put(id *Identity, v any) error {
	err := s.put(id, v)
	if err != nil {
		s.putErrs.Add(1)
	}
	return err
}

func (s *Store) put(id *Identity, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("runcache: encode: %w", err)
	}
	sha := id.ID()
	env := envelope{Epoch: FormatEpoch, ID: sha, CRC: crc32.ChecksumIEEE(data), Data: data}
	blob, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("runcache: encode envelope: %w", err)
	}
	path := s.entryPath(sha)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("runcache: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, "tmp-*")
	if err != nil {
		return fmt.Errorf("runcache: %w", err)
	}
	_, werr := tmp.Write(blob)
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runcache: write entry: %w", werr)
	}
	var oldSize int64
	if info, err := os.Stat(path); err == nil {
		oldSize = info.Size()
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runcache: commit entry: %w", err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("runcache: commit entry: %w", err)
	}
	s.puts.Add(1)
	s.mu.Lock()
	s.curBytes += int64(len(blob)) - oldSize
	over := s.curBytes > s.maxBytes
	s.mu.Unlock()
	if over {
		s.evict()
	}
	return nil
}

// syncDir fsyncs a directory, making a rename into it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// removeEntry deletes a cache file and keeps byte accounting consistent.
func (s *Store) removeEntry(path string) {
	var size int64
	if info, err := os.Stat(path); err == nil {
		size = info.Size()
	}
	if os.Remove(path) == nil {
		s.mu.Lock()
		s.curBytes -= size
		s.mu.Unlock()
	}
}

// evict removes oldest-mtime entries until the store fits its size bound.
// Freshly written entries carry the newest mtimes and hits re-touch theirs,
// so the walk approximates LRU.
func (s *Store) evict() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.curBytes <= s.maxBytes {
		return
	}
	type entry struct {
		path  string
		id    string
		size  int64
		mtime time.Time
	}
	var entries []entry
	filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		// The entry ID is the filename stem (entries live at
		// <id[:2]>/<id>.json); stray temp files sort by their temp name,
		// which is fine — they are crash residue and fair eviction fodder.
		id := strings.TrimSuffix(filepath.Base(path), ".json")
		entries = append(entries, entry{path: path, id: id, size: info.Size(), mtime: info.ModTime()})
		return nil
	})
	// Oldest mtime first; equal mtimes — routine on filesystems with
	// coarse (second-granularity) timestamps, where a whole campaign's
	// fills can land in one tick — tie-break on the entry ID so GC order
	// is a pure function of store contents, not of directory walk order.
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].mtime.Equal(entries[j].mtime) {
			return entries[i].mtime.Before(entries[j].mtime)
		}
		return entries[i].id < entries[j].id
	})
	// Recompute from the walk: cheaper than perfect bookkeeping and immune
	// to drift from concurrent corrupt-entry removals.
	var total int64
	for _, e := range entries {
		total += e.size
	}
	s.curBytes = total
	for _, e := range entries {
		if s.curBytes <= s.maxBytes {
			break
		}
		if os.Remove(e.path) == nil {
			s.curBytes -= e.size
			s.evictions.Add(1)
		}
	}
}

// CountVerify records one trust-but-verify recomputation of a cache hit
// and whether the live result diverged from the stored one.
func (s *Store) CountVerify(diverged bool) {
	s.vruns.Add(1)
	if diverged {
		s.vdiverge.Add(1)
	}
}

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	bytes := s.curBytes
	s.mu.Unlock()
	if bytes < 0 {
		bytes = 0
	}
	return Stats{
		Hits:              s.hits.Load(),
		Misses:            s.misses.Load(),
		Puts:              s.puts.Load(),
		Evictions:         s.evictions.Load(),
		Corrupt:           s.corrupt.Load(),
		Bytes:             uint64(bytes),
		VerifyRuns:        s.vruns.Load(),
		VerifyDivergences: s.vdiverge.Load(),
		PutErrors:         s.putErrs.Load(),
	}
}

// Export publishes the store counters into an obs registry under
// `runcache.*` names.
func (s *Store) Export(reg *obs.Registry) {
	st := s.Stats()
	reg.Counter("runcache.hits").Add(st.Hits)
	reg.Counter("runcache.misses").Add(st.Misses)
	reg.Counter("runcache.puts").Add(st.Puts)
	reg.Counter("runcache.evictions").Add(st.Evictions)
	reg.Counter("runcache.corrupt").Add(st.Corrupt)
	reg.Counter("runcache.bytes").Add(st.Bytes)
	reg.Counter("runcache.verify.runs").Add(st.VerifyRuns)
	reg.Counter("runcache.verify.divergences").Add(st.VerifyDivergences)
	reg.Counter("runcache.put_errors").Add(st.PutErrors)
}

// ShouldVerify deterministically samples id for trust-but-verify
// recomputation: the first 64 bits of the entry address are compared
// against fraction, so the same fraction always re-verifies the same
// stable subset of entries (diffcheck-style reproducibility).
func ShouldVerify(id *Identity, fraction float64) bool {
	if fraction <= 0 {
		return false
	}
	if fraction >= 1 {
		return true
	}
	u, err := strconv.ParseUint(id.ID()[:16], 16, 64)
	if err != nil {
		return false
	}
	return float64(u) < fraction*float64(1<<32)*float64(1<<32)
}

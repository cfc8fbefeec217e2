package runcache

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"blackjack/internal/obs"
)

type outcome struct {
	Class string `json:"class"`
	Cycle int64  `json:"cycle"`
}

func testIdentity(extra ...string) *Identity {
	id := NewIdentity("program=gcc", "mode=blackjack", "n=8000")
	for _, p := range extra {
		id.parts = append(id.parts, p)
	}
	return id
}

func TestIdentityEncoding(t *testing.T) {
	a := NewIdentity().Add("program", "gcc").Addf("n", "%d", 8000)
	b := NewIdentity("program=gcc", "n=8000")
	if a.ID() != b.ID() {
		t.Fatalf("equivalent identities disagree: %s vs %s", a.ID(), b.ID())
	}
	// Order matters: key=value folding must not be commutative.
	c := NewIdentity("n=8000", "program=gcc")
	if c.ID() == a.ID() {
		t.Fatal("reordered parts produced the same ID")
	}
	// Part boundaries matter: "ab"+"c" must differ from "a"+"bc".
	if NewIdentity("ab", "c").ID() == NewIdentity("a", "bc").ID() {
		t.Fatal("part boundary not separated in ID")
	}
	if NewIdentity("program=gcc", "n=8001").ID() == a.ID() {
		t.Fatal("ID ignores a changed value")
	}
	if got := a.Parts(); len(got) != 2 || got[0] != "program=gcc" || got[1] != "n=8000" {
		t.Fatalf("Parts() = %v", got)
	}
}

func TestDiffParts(t *testing.T) {
	base := []string{"program=gcc", "mode=blackjack", "n=8000"}
	cases := []struct {
		name string
		have []string
		want []string
		sub  string
	}{
		{"identical", base, base, ""},
		{"changed value", []string{"program=gcc", "mode=blackjack", "n=9000"}, base, `file has "n=9000", workload has "n=8000"`},
		{"workload longer", base[:2], base, `workload adds parameter "n=8000"`},
		{"file longer", base, base[:2], `file has extra parameter "n=8000"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := DiffParts(tc.have, tc.want)
			if tc.sub == "" {
				if got != "" {
					t.Fatalf("DiffParts = %q, want empty", got)
				}
				return
			}
			if !strings.Contains(got, tc.sub) {
				t.Fatalf("DiffParts = %q, want substring %q", got, tc.sub)
			}
		})
	}
}

func TestStoreRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	id := testIdentity()
	var got outcome
	if s.Get(id, &got) {
		t.Fatal("hit on empty store")
	}
	want := outcome{Class: "detected", Cycle: 412}
	if err := s.Put(id, want); err != nil {
		t.Fatal(err)
	}
	if !s.Get(id, &got) {
		t.Fatal("miss after Put")
	}
	if got != want {
		t.Fatalf("round trip: got %+v want %+v", got, want)
	}
	// A different identity must miss.
	if s.Get(testIdentity("site=extra"), &got) {
		t.Fatal("hit for a different identity")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Puts != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Bytes == 0 {
		t.Fatal("byte accounting is zero after a Put")
	}
}

func TestStoreReopenSeesEntries(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	id := testIdentity()
	if err := s.Put(id, outcome{Class: "masked"}); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got outcome
	if !s2.Get(id, &got) || got.Class != "masked" {
		t.Fatalf("reopened store missed committed entry: %+v", got)
	}
	if s2.Stats().Bytes == 0 {
		t.Fatal("reopened store did not size existing entries")
	}
}

// TestStoreCorruption is the tamper table: every damaged entry must fail
// the checksum/epoch validation and read as a miss (falling back to live
// execution), never be served.
func TestStoreCorruption(t *testing.T) {
	cases := []struct {
		name   string
		tamper func(t *testing.T, path string)
	}{
		{"truncated", func(t *testing.T, path string) {
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, blob[:len(blob)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"bit-flipped payload", func(t *testing.T, path string) {
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var env envelope
			if err := json.Unmarshal(blob, &env); err != nil {
				t.Fatal(err)
			}
			// Flip one bit inside a JSON string value of the payload so the
			// envelope still parses and only the CRC can catch it.
			data := []byte(string(env.Data))
			i := len(data) / 2
			data[i] ^= 0x01
			env.Data = data
			out, err := json.Marshal(env)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, out, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"wrong epoch", rewriteEpoch(FormatEpoch + 1)},
		{"previous epoch", rewriteEpoch(FormatEpoch - 1)},
		{"wrong address", func(t *testing.T, path string) {
			// Simulate a cross-linked/renamed file: valid envelope whose
			// self-identifying ID belongs to a different entry.
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var env envelope
			if err := json.Unmarshal(blob, &env); err != nil {
				t.Fatal(err)
			}
			env.ID = strings.Repeat("00", 32)
			out, err := json.Marshal(env)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, out, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"not JSON at all", func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte("not a cache entry"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Open(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			id := testIdentity()
			stored := outcome{Class: "silent-corruption", Cycle: 99}
			if err := s.Put(id, stored); err != nil {
				t.Fatal(err)
			}
			path := s.entryPath(id.ID())
			tc.tamper(t, path)
			var got outcome
			if s.Get(id, &got) {
				t.Fatalf("tampered entry (%s) was served: %+v", tc.name, got)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("tampered entry (%s) was not removed", tc.name)
			}
			st := s.Stats()
			if st.Corrupt != 1 {
				t.Fatalf("corrupt counter = %d, want 1", st.Corrupt)
			}
			// After removal the next Put must repopulate and serve cleanly.
			if err := s.Put(id, stored); err != nil {
				t.Fatal(err)
			}
			if !s.Get(id, &got) || got != stored {
				t.Fatalf("repopulated entry not served: %+v", got)
			}
		})
	}
}

func TestStoreEviction(t *testing.T) {
	// Budget fits roughly two entries; inserting several must evict the
	// oldest and keep the store under budget.
	dir := t.TempDir()
	s, err := Open(dir, 600)
	if err != nil {
		t.Fatal(err)
	}
	big := strings.Repeat("x", 200)
	ids := make([]*Identity, 5)
	for i := range ids {
		ids[i] = testIdentity("i=" + string(rune('a'+i)))
		if err := s.Put(ids[i], outcome{Class: big, Cycle: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions with budget 600 and 5 large entries: %+v", st)
	}
	if st.Bytes > 600 {
		t.Fatalf("store over budget after eviction: %d bytes", st.Bytes)
	}
	var got outcome
	if s.Get(ids[0], &got) {
		t.Fatal("oldest entry survived eviction")
	}
	if !s.Get(ids[len(ids)-1], &got) {
		t.Fatal("newest entry was evicted")
	}
}

func TestStoreAtomicTempCleanup(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testIdentity(), outcome{Class: "ok"}); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("temp files left behind: %v", matches)
	}
}

func TestShouldVerifyDeterministicAndBounded(t *testing.T) {
	id := testIdentity()
	if ShouldVerify(id, 0) {
		t.Fatal("fraction 0 sampled an entry")
	}
	if !ShouldVerify(id, 1) {
		t.Fatal("fraction 1 skipped an entry")
	}
	if ShouldVerify(id, 0.25) != ShouldVerify(id, 0.25) {
		t.Fatal("sampling not deterministic")
	}
	// Across many identities the sampled fraction should be loosely near
	// the requested fraction (hash uniformity; wide tolerance).
	n, hit := 2000, 0
	for i := 0; i < n; i++ {
		if ShouldVerify(testIdentity("i="+strconv.Itoa(i)), 0.25) {
			hit++
		}
	}
	frac := float64(hit) / float64(n)
	if frac < 0.10 || frac > 0.45 {
		t.Fatalf("sampled fraction %.3f far from 0.25", frac)
	}
}

func TestExportCounters(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	id := testIdentity()
	var got outcome
	s.Get(id, &got) // miss
	if err := s.Put(id, outcome{Class: "ok"}); err != nil {
		t.Fatal(err)
	}
	s.Get(id, &got) // hit
	s.CountVerify(false)
	s.CountVerify(true)
	reg := obs.NewRegistry()
	s.Export(reg)
	for name, want := range map[string]uint64{
		"runcache.hits":               1,
		"runcache.misses":             1,
		"runcache.puts":               1,
		"runcache.verify.runs":        2,
		"runcache.verify.divergences": 1,
	} {
		if got := reg.CounterValue(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if reg.CounterValue("runcache.bytes") == 0 {
		t.Error("runcache.bytes not exported")
	}
}

// TestDiffPartsNamesFirstMismatch: when several parameters differ, the
// message names the earliest one — the stable anchor a user greps for.
func TestDiffPartsNamesFirstMismatch(t *testing.T) {
	cases := []struct {
		name       string
		have, want []string
		sub        string
	}{
		{"first of several diffs wins",
			[]string{"program=gzip", "mode=srt", "n=9000"},
			[]string{"program=gcc", "mode=blackjack", "n=8000"},
			`file has "program=gzip", workload has "program=gcc"`},
		{"later diffs not reported",
			[]string{"program=gcc", "mode=srt", "n=9000"},
			[]string{"program=gcc", "mode=blackjack", "n=8000"},
			`file has "mode=srt", workload has "mode=blackjack"`},
		{"both empty", nil, nil, ""},
		{"empty file vs workload",
			nil, []string{"program=gcc"},
			`workload adds parameter "program=gcc"`},
		{"file vs empty workload",
			[]string{"program=gcc"}, nil,
			`file has extra parameter "program=gcc"`},
		{"empty-string part still compared",
			[]string{""}, []string{"program=gcc"},
			`file has "", workload has "program=gcc"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := DiffParts(tc.have, tc.want)
			if tc.sub == "" {
				if got != "" {
					t.Fatalf("DiffParts = %q, want empty", got)
				}
				return
			}
			if !strings.Contains(got, tc.sub) {
				t.Fatalf("DiffParts = %q, want substring %q", got, tc.sub)
			}
		})
	}
}

func TestEvictionDeterministicOnMtimeCollision(t *testing.T) {
	// Coarse-mtime filesystems round timestamps to the second, so every
	// entry a campaign fills can share one mtime. Eviction order must then
	// be a pure function of store contents (entry-ID order), not of
	// directory walk order or insertion order.
	ids := make([]*Identity, 6)
	for i := range ids {
		ids[i] = testIdentity("site=" + strconv.Itoa(i))
	}
	survivorsOf := func(insertOrder []int) map[string]bool {
		t.Helper()
		dir := t.TempDir()
		s, err := Open(dir, 1<<30) // no eviction during the fills
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range insertOrder {
			if err := s.Put(ids[i], outcome{Class: "benign", Cycle: int64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		// Collapse every mtime to one instant — the collision under test.
		stamp := time.Unix(1_700_000_000, 0)
		var entrySize int64
		filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return nil
			}
			if info, err := d.Info(); err == nil {
				entrySize = info.Size()
			}
			return os.Chtimes(path, stamp, stamp)
		})
		// Shrink the bound so exactly half the entries must go, and force
		// the eviction walk.
		s.maxBytes = entrySize * int64(len(ids)) / 2
		s.evict()
		survivors := map[string]bool{}
		filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return nil
			}
			survivors[strings.TrimSuffix(filepath.Base(path), ".json")] = true
			return nil
		})
		return survivors
	}

	base := survivorsOf([]int{0, 1, 2, 3, 4, 5})
	if len(base) == 0 || len(base) == len(ids) {
		t.Fatalf("eviction test degenerate: %d of %d entries survived", len(base), len(ids))
	}
	// Same contents, different insertion orders: identical survivors.
	for _, order := range [][]int{{5, 4, 3, 2, 1, 0}, {2, 5, 0, 3, 1, 4}} {
		got := survivorsOf(order)
		if len(got) != len(base) {
			t.Fatalf("insertion order %v changed survivor count: %d vs %d", order, len(got), len(base))
		}
		for id := range base {
			if !got[id] {
				t.Errorf("insertion order %v evicted %s, which the canonical order kept", order, id)
			}
		}
	}
	// With every mtime equal, the survivors must be exactly the entries
	// with the largest IDs (smallest IDs evicted first).
	var all []string
	for _, id := range ids {
		all = append(all, id.ID())
	}
	sort.Strings(all)
	for _, id := range all[len(all)-len(base):] {
		if !base[id] {
			t.Errorf("ID tie-break violated: %s (among the largest IDs) was evicted", id)
		}
	}
	for _, id := range all[:len(all)-len(base)] {
		if base[id] {
			t.Errorf("ID tie-break violated: %s (among the smallest IDs) survived", id)
		}
	}
}

// rewriteEpoch returns a corruption that rewrites an entry's envelope as
// written at the given epoch, its checksum and data intact.
func rewriteEpoch(epoch int) func(t *testing.T, path string) {
	return func(t *testing.T, path string) {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var env envelope
		if err := json.Unmarshal(blob, &env); err != nil {
			t.Fatal(err)
		}
		env.Epoch = epoch
		out, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

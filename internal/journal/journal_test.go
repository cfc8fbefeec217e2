package journal

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

type rec struct {
	Site    string `json:"site"`
	Outcome int    `json:"outcome"`
}

func hdr() Header { return Header{Kind: "campaign", Key: 0xfeed, Version: 1} }

func TestAppendAndResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, done, err := Open[rec](path, hdr())
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 0 {
		t.Fatalf("fresh journal reports %d done", len(done))
	}
	for i := 0; i < 100; i++ {
		if err := j.Append(i, rec{Site: fmt.Sprintf("s%d", i), Outcome: i % 4}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, done, err := Open[rec](path, hdr())
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(done) != 100 {
		t.Fatalf("resumed %d records, want 100", len(done))
	}
	for i, r := range done {
		if r.Site != fmt.Sprintf("s%d", i) || r.Outcome != i%4 {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
	// Appending after resume extends the same file.
	if err := j2.Append(100, rec{Site: "s100"}); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	_, done, err = Open[rec](path, hdr())
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 101 {
		t.Fatalf("after append-on-resume: %d records, want 101", len(done))
	}
}

func TestKeyMismatchRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, _, err := Open[rec](path, hdr())
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	for _, bad := range []Header{
		{Kind: "fuzz", Key: 0xfeed, Version: 1},
		{Kind: "campaign", Key: 0xdead, Version: 1},
		{Kind: "campaign", Key: 0xfeed, Version: 2},
	} {
		if _, _, err := Open[rec](path, bad); !errors.Is(err, ErrKeyMismatch) {
			t.Errorf("Open with header %+v: err = %v, want ErrKeyMismatch", bad, err)
		}
	}
}

func TestKeyMismatchNamesChangedParameter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	wrote := Header{Kind: "campaign", Key: 0x8000, Version: 1,
		Parts: []string{"bench=gcc", "n=8000"}}
	j, _, err := Open[rec](path, wrote)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	resume := Header{Kind: "campaign", Key: 0x9000, Version: 1,
		Parts: []string{"bench=gcc", "n=9000"}}
	_, _, err = Open[rec](path, resume)
	if !errors.Is(err, ErrKeyMismatch) {
		t.Fatalf("err = %v, want ErrKeyMismatch", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "does not match") {
		t.Errorf("mismatch message lost the does-not-match marker: %q", msg)
	}
	if !strings.Contains(msg, `file has "n=8000"`) || !strings.Contains(msg, `workload has "n=9000"`) {
		t.Errorf("mismatch message does not name the changed parameter: %q", msg)
	}

	// Parts are diagnostic only: identical identity with or without parts
	// must still resume (journals written before parts existed).
	j2, _, err := Open[rec](path, Header{Kind: "campaign", Key: wrote.Key, Version: 1})
	if err != nil {
		t.Errorf("parts-free header refused against parts-bearing journal: %v", err)
	} else {
		j2.Close()
	}
}

func TestTornTrailingLineTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, _, err := Open[rec](path, hdr())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := j.Append(i, rec{Site: fmt.Sprintf("s%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: append half a record with no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"i":10,"r":{"sit`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, done, err := Open[rec](path, hdr())
	if err != nil {
		t.Fatalf("resume over torn tail: %v", err)
	}
	if len(done) != 10 {
		t.Fatalf("resumed %d records, want 10 (torn line discarded)", len(done))
	}
	// The next append must yield a readable record (the torn bytes may
	// remain, but the journal stays resumable end to end).
	if err := j2.Append(10, rec{Site: "s10"}); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	_, done, err = Open[rec](path, hdr())
	if err != nil {
		t.Fatalf("reopen after healing append: %v", err)
	}
	if _, ok := done[10]; !ok {
		t.Errorf("record appended after torn tail not recovered: have %d records", len(done))
	}
}

func TestMidFileCorruptionIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, _, err := Open[rec](path, hdr())
	if err != nil {
		t.Fatal(err)
	}
	j.Append(0, rec{Site: "s0"})
	j.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("GARBAGE NOT JSON\n")
	f.WriteString(`{"i":1,"r":{"site":"s1","outcome":0}}` + "\n")
	f.Close()
	if _, _, err := Open[rec](path, hdr()); err == nil {
		t.Fatal("mid-file corruption accepted silently")
	}
}

func TestConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, _, err := Open[rec](path, hdr())
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 4 {
				if err := j.Append(i, rec{Site: fmt.Sprintf("s%d", i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, done, err := Open[rec](path, hdr())
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != n {
		t.Fatalf("recovered %d of %d concurrent appends", len(done), n)
	}
}

func TestSyncFlushesPartialBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, _, err := Open[rec](path, hdr())
	if err != nil {
		t.Fatal(err)
	}
	// Fewer than SyncEvery appends: without Sync these sit in the buffer.
	for i := 0; i < 5; i++ {
		j.Append(i, rec{Site: fmt.Sprintf("s%d", i)})
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	// Read the raw file without closing the writer (Open would refuse the
	// live flock) — the crash-visibility check: one header line plus five
	// record lines must already be durable.
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(blob), "\n"); lines != 6 {
		t.Fatalf("after Sync, the file holds %d complete lines, want 6 (header + 5 records)", lines)
	}
	j.Close()
}

// TestMain doubles as the kill-writer helper process: when the env var
// names a journal path, this process appends records forever until the
// parent test SIGKILLs it mid-loop.
func TestMain(m *testing.M) {
	if path := os.Getenv("JOURNAL_KILL_WRITER_PATH"); path != "" {
		killWriterMain(path)
		return
	}
	os.Exit(m.Run())
}

func killWriterMain(path string) {
	j, done, err := Open[rec](path, hdr())
	if err != nil {
		fmt.Fprintln(os.Stderr, "kill-writer:", err)
		os.Exit(1)
	}
	// Sync every append so the file grows durably record by record — the
	// parent kills this process mid-loop, possibly mid-write, and the
	// healed tail must be a dense prefix of what was appended.
	for i := len(done); ; i++ {
		if err := j.Append(i, rec{Site: fmt.Sprintf("site-%d-%s", i, strings.Repeat("x", 200)), Outcome: i}); err != nil {
			fmt.Fprintln(os.Stderr, "kill-writer:", err)
			os.Exit(1)
		}
		if err := j.Sync(); err != nil {
			fmt.Fprintln(os.Stderr, "kill-writer:", err)
			os.Exit(1)
		}
	}
}

func TestTornTailHealsAfterSIGKILLedWriter(t *testing.T) {
	if runtime.GOOS == "windows" || runtime.GOOS == "plan9" {
		t.Skip("SIGKILL helper is unix-only")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Skip("cannot re-exec test binary:", err)
	}
	path := filepath.Join(t.TempDir(), "kill.journal")
	cmd := exec.Command(exe, "-test.run=^$")
	cmd.Env = append(os.Environ(), "JOURNAL_KILL_WRITER_PATH="+path)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Let the writer accumulate a few KB of records, then SIGKILL it —
	// no deferred flush, no lock release, exactly the crash the torn-tail
	// healing exists for.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if info, err := os.Stat(path); err == nil && info.Size() > 8<<10 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("kill-writer never produced a journal")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	// Reopen: the flock died with the writer, the torn tail (if any) is
	// discarded, and the surviving records are a dense prefix 0..n-1 whose
	// payloads round-trip exactly.
	j, done, err := Open[rec](path, hdr())
	if err != nil {
		t.Fatalf("reopen after SIGKILL: %v", err)
	}
	n := len(done)
	if n == 0 {
		t.Fatal("no records survived the crash despite per-append Sync")
	}
	for i := 0; i < n; i++ {
		r, ok := done[i]
		if !ok {
			t.Fatalf("healed journal has %d records but index %d is missing (not a dense prefix)", n, i)
		}
		if r.Outcome != i {
			t.Fatalf("record %d replays outcome %d", i, r.Outcome)
		}
	}
	// The healed journal must accept appends and resume cleanly.
	if err := j.Append(n, rec{Site: "post-crash", Outcome: n}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, done, err = Open[rec](path, hdr())
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != n+1 {
		t.Fatalf("resume after heal sees %d records, want %d", len(done), n+1)
	}
}

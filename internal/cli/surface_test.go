package cli

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/flags.txt from the built tools")

var tools = []string{"bjexp", "bjfault", "bjfuzz", "bjgen", "bjserve", "bjsim"}

// buildTools builds every command into a fresh directory.
func buildTools(t *testing.T) string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	dir := t.TempDir()
	args := []string{"build", "-o", dir + string(filepath.Separator)}
	for _, tool := range tools {
		args = append(args, "blackjack/cmd/"+tool)
	}
	if out, err := exec.Command(goBin, args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return dir
}

// toolEnv is the environment minus the cache opt-in, which would change
// -cache-dir's default.
func toolEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "BLACKJACK_CACHE_DIR=") {
			env = append(env, kv)
		}
	}
	return env
}

var defaultRE = regexp.MustCompile(` \(default (.*)\)$`)

// parseHelp turns a tool's -h output into "tool -flag [default]" lines, in
// the order the flag package prints them. A string flag's default is
// quoted, which tells it apart from "(default ...)" text inside a usage.
func parseHelp(tool, help string) []string {
	var out []string
	var name, typ, def string
	flush := func() {
		if name != "" {
			out = append(out, strings.TrimSpace(fmt.Sprintf("%s -%s %s", tool, name, def)))
		}
	}
	sc := bufio.NewScanner(strings.NewReader(help))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "  -") {
			flush()
			head, usage, _ := strings.Cut(line[3:], "\t")
			name, typ, _ = strings.Cut(strings.TrimSpace(head), " ")
			def = ""
			line = usage
		}
		if m := defaultRE.FindStringSubmatch(line); m != nil && (typ != "string" || strings.HasPrefix(m[1], `"`)) {
			def = m[1]
		}
	}
	flush()
	return out
}

// The tools keep every flag name and default they had: the shared flag
// groups moved into this package without losing, renaming or re-defaulting
// a flag (only -cache is gone; -cache-dir "" says the same). The exit
// codes scripts branch on are part of the surface too.
func TestCLISurface(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every command")
	}
	bin := buildTools(t)
	var got []string
	for _, tool := range tools {
		cmd := exec.Command(filepath.Join(bin, tool), "-h")
		cmd.Env = toolEnv()
		var help bytes.Buffer
		cmd.Stdout, cmd.Stderr = &help, &help
		if err := cmd.Run(); err != nil {
			t.Fatalf("%s -h: %v\n%s", tool, err, help.String())
		}
		got = append(got, parseHelp(tool, help.String())...)
	}
	golden := filepath.Join("testdata", "flags.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := strings.Join(got, "\n")+"\n", string(want); g != w {
		t.Errorf("flag surface changed:\n--- got\n%s--- want\n%s", g, w)
	}

	for _, c := range []struct {
		tool string
		args []string
		code int
		// refused is the flag a mode refuses, named in the error.
		refused string
	}{
		{tool: "bjsim", args: []string{"-mode", "bogus"}, code: ExitError},
		// A one-entry issue queue wedges the machine within a few thousand
		// cycles of a tiny budget.
		{tool: "bjsim", args: []string{"-bench", "gzip", "-n", "200", "-iq", "1", "-cache-dir", ""}, code: ExitDeadlock},
		// A flag the chosen mode does not read is refused before any run.
		{tool: "bjfault", args: []string{"-site", "frontend", "-compare", "-journal", "j.journal", "-sites", "latent"}, code: ExitError, refused: "-compare"},
		{tool: "bjfault", args: []string{"-site", "frontend", "-journal", "j.journal"}, code: ExitError, refused: "-journal"},
		{tool: "bjfault", args: []string{"-site", "frontend", "-sites", "latent"}, code: ExitError, refused: "-sites"},
		{tool: "bjfault", args: []string{"-site-index", "2", "-duty", "32/8"}, code: ExitError, refused: "-duty"},
		{tool: "bjfault", args: []string{"-site-index", "2", "-mask", "0xff"}, code: ExitError, refused: "-mask"},
		{tool: "bjfault", args: []string{"-site-index", "2", "-way", "3"}, code: ExitError, refused: "-way"},
		{tool: "bjfault", args: []string{"-site-index", "2", "-site", "backend"}, code: ExitError, refused: "-site"},
		// A replayed run is observed like any standalone injection.
		{tool: "bjfault", args: []string{"-site-index", "2", "-metrics-out", "m.json"}, code: 0},
		{tool: "bjfault", args: []string{"-trace-out", "t.json"}, code: ExitError, refused: "-trace-out"},
		{tool: "bjfault", args: []string{"-unit", "mem"}, code: ExitError, refused: "-unit"},
		{tool: "bjfuzz", args: []string{"-matrix", "-journal", "j.journal"}, code: ExitError, refused: "-journal"},
		{tool: "bjfuzz", args: []string{"-replay", "x", "-emit-corpus", "3"}, code: ExitError, refused: "-emit-corpus"},
	} {
		cmd := exec.Command(filepath.Join(bin, c.tool), c.args...)
		cmd.Dir = t.TempDir()
		cmd.Env = toolEnv()
		out, err := cmd.CombinedOutput()
		if got := cmd.ProcessState.ExitCode(); got != c.code {
			t.Errorf("%s %s: exit %d (%v), want exit %d\n%s", c.tool, strings.Join(c.args, " "), got, err, c.code, out)
		}
		if want := c.refused + " is not read in"; c.refused != "" && !strings.Contains(string(out), want) {
			t.Errorf("%s %s: output does not say %q:\n%s", c.tool, strings.Join(c.args, " "), want, out)
		}
	}
}

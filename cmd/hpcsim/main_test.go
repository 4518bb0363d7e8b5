package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// mainEnv makes the test binary act as the hpcsim command, so the
// tests below can run it as a child process without building it.
const mainEnv = "HPCSIM_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// hpcsim runs the command with args and returns its stdout, its
// stderr and its exit code.
func hpcsim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatalf("hpcsim %s: %v", strings.Join(args, " "), err)
		}
		code = exit.ExitCode()
	}
	return out.String(), errOut.String(), code
}

// TestResultManifest is the hpcsim part of the repository root's
// TestResultManifest: hpcsim's output at its defaults, under the
// baseline profile and with the kill-chain campaign must equal the
// goldens under testdata/results/ byte for byte. The root test's doc
// comment has the commands that re-record them.
func TestResultManifest(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"hpcsim.txt", nil},
		{"hpcsim-baseline.txt", []string{"-profile", "baseline"}},
		{"hpcsim-kill-chain.txt", []string{"-attack", "kill-chain"}},
	} {
		want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "results", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		got, stderr, code := hpcsim(t, tc.args...)
		if code != 0 || stderr != "" {
			t.Fatalf("hpcsim %v: exit %d, stderr %q", tc.args, code, stderr)
		}
		if got == string(want) {
			continue
		}
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range max(len(gl), len(wl)) {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("hpcsim %v differs from %s at line %d:\n got: %q\nwant: %q", tc.args, tc.golden, i+1, g, w)
				break
			}
		}
	}
}

// A mix flag the workload cannot build exits 2 with MixSpec.Validate's
// message, before any cluster is built: no user panics on an empty
// account list, and no job count runs an empty mix.
func TestBadMixFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-users", "0"}, "hpcsim: workload: mix needs at least 1 user (got 0)\n"},
		{[]string{"-users", "-2"}, "hpcsim: workload: mix needs at least 1 user (got -2)\n"},
		{[]string{"-jobs", "0"}, "hpcsim: workload: mix needs at least 1 job per user (got 0)\n"},
	} {
		stdout, stderr, code := hpcsim(t, tc.args...)
		if code != 2 || stderr != tc.want || stdout != "" {
			t.Errorf("hpcsim %v: exit %d, stderr %q, stdout %d bytes; want exit 2, stderr %q, no stdout",
				tc.args, code, stderr, len(stdout), tc.want)
		}
	}
}

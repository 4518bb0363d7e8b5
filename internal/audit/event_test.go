package audit

import (
	"errors"
	"strings"
	"testing"
)

// TestLogTimelineOrder pins that a campaign's event table is a
// timeline: rows keep the events' append order, not tick order, and the
// note names the first denial in that order, not the earliest tick.
func TestLogTimelineOrder(t *testing.T) {
	events := []Event{
		{Tick: 9, Step: "late", Channel: ChanGPU, Verdict: Leaked},
		{Tick: 2, Step: "early", Channel: ChanFS, Verdict: Leaked},
		{Tick: 5, Step: "denied", Channel: ChanNetwork, Verdict: Denied},
		{Tick: 1, Step: "late-deny", Channel: ChanFS, Verdict: Denied},
	}
	out := EventTable("campaign", events).Render()
	var steps []string
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] != "tick" && !strings.HasPrefix(f[0], "-") && !strings.HasPrefix(f[0], "=") && f[0] != "note:" {
			steps = append(steps, f[1])
		}
	}
	want := []string{"late", "early", "denied", "late-deny"}
	if strings.Join(steps, ",") != strings.Join(want, ",") {
		t.Errorf("event table rows = %v, want %v (append order lost):\n%s", steps, want, out)
	}
	if !strings.Contains(out, "first denial at tick 5 (denied)") {
		t.Errorf("note does not name the first denial in timeline order:\n%s", out)
	}
}

func TestLogTableRendering(t *testing.T) {
	events := []Event{
		{Tick: 1, Step: "recon", Channel: ChanProcess, Verdict: Leaked},
		{Tick: 3, Step: "tmp", Channel: ChanTmpNames, Residual: true, Verdict: Leaked},
		{Tick: 2, Step: "probe", Channel: ChanGPU, Verdict: Inconclusive, Detail: Note("victim gpu job never placed")},
		{Tick: 4, Step: "dial", Channel: ChanNetwork, Verdict: Denied, Detail: Note("dropped")},
	}
	out := EventTable("campaign", events).Render()
	for _, want := range []string{"LEAK", "leak (residual)", "INCONCLUSIVE", "denied", "dropped", "first denial at tick 4 (dial)", "2/4 attempts leaked", "1 inconclusive"} {
		if !strings.Contains(out, want) {
			t.Errorf("event table missing %q:\n%s", want, out)
		}
	}
	if out := EventTable("all-leak", events[:1]).Render(); !strings.Contains(out, "no attempt was ever denied") {
		t.Errorf("undetected campaign table missing the no-denial note:\n%s", out)
	}
}

// TestDetailRendering pins the Detail forms: a fixed note (a '%' in it
// stays literal), one formatted argument, an observed error, and a
// fixed note that keeps the refusal behind it; Err hands the error
// back unrendered.
func TestDetailRendering(t *testing.T) {
	denied := errors.New("vfs: permission denied: read /x")
	cases := []struct {
		d    Detail
		want string
		err  error
	}{
		{Note("100% closed"), "100% closed", nil},
		{Detailf("victim pid %d listed", 4), "victim pid 4 listed", nil},
		{Detailf("file name %q visible", "a b"), `file name "a b" visible`, nil},
		{Detailf("victim write refused: %v", denied), "victim write refused: vfs: permission denied: read /x", denied},
		{Detailf("cmdline read: %v", nil), "cmdline read: <nil>", nil},
		{Denial("UBF dropped cross-user connection", denied), "UBF dropped cross-user connection", denied},
	}
	for _, tc := range cases {
		if got := tc.d.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
		if got := tc.d.Err(); got != tc.err {
			t.Errorf("%q: Err() = %v, want %v", tc.want, got, tc.err)
		}
	}
}

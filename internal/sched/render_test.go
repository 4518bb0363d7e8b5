package sched

import (
	"strings"
	"testing"

	"repro/internal/ids"
)

func TestSqueueTextPrivacy(t *testing.T) {
	s := New(Config{PrivateData: true}, computeNodes(2, 4, 1000), 0)
	if _, err := s.Submit(cred(1000), JobSpec{Name: "mine", Command: "x", Cores: 1, MemB: 1, Duration: 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(cred(2000), JobSpec{Name: "theirs", Command: "x", Cores: 1, MemB: 1, Duration: 10}); err != nil {
		t.Fatal(err)
	}
	s.Step()
	resolve := func(uid ids.UID) string {
		if uid == 1000 {
			return "alice"
		}
		return "bob"
	}
	out := s.SqueueText(cred(1000), resolve)
	if !strings.Contains(out, "mine") || !strings.Contains(out, "alice") {
		t.Errorf("own job missing:\n%s", out)
	}
	if strings.Contains(out, "theirs") || strings.Contains(out, "bob") {
		t.Errorf("foreign job leaked into text:\n%s", out)
	}
	// Root view includes both; nil resolver prints numeric UIDs.
	rootOut := s.SqueueText(ids.RootCred(), nil)
	if !strings.Contains(rootOut, "theirs") || !strings.Contains(rootOut, "2000") {
		t.Errorf("root view incomplete:\n%s", rootOut)
	}
}

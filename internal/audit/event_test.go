package audit

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestLogTimelineOrder(t *testing.T) {
	l := NewLog()
	// Deliberately unsorted ticks and channels: the log is a
	// timeline, append order must survive.
	l.Record(Event{Tick: 9, Step: "late", Channel: ChanGPU, Leaked: true})
	l.Record(Event{Tick: 2, Step: "early", Channel: ChanFS, Leaked: true})
	l.Record(Event{Tick: 5, Step: "denied", Channel: ChanNetwork, Leaked: false})
	ev := l.Events()
	if len(ev) != 3 || l.Len() != 3 {
		t.Fatalf("events = %d / len = %d", len(ev), l.Len())
	}
	for i, want := range []string{"late", "early", "denied"} {
		if ev[i].Step != want {
			t.Errorf("event[%d] = %q, want %q (append order lost)", i, ev[i].Step, want)
		}
	}
	first, ok := l.FirstDetection()
	if !ok || first.Step != "denied" || first.Tick != 5 {
		t.Errorf("FirstDetection = %+v/%v, want the tick-5 denial", first, ok)
	}
	// Events returns a copy: mutating it must not corrupt the log.
	ev[0].Step = "mutated"
	if l.Events()[0].Step != "late" {
		t.Error("Events() aliases the log's backing array")
	}
	l.Reset()
	if l.Len() != 0 {
		t.Errorf("len after Reset = %d", l.Len())
	}
	if _, ok := l.FirstDetection(); ok {
		t.Error("FirstDetection on a reset log")
	}
}

func TestLogTableRendering(t *testing.T) {
	l := NewLog()
	l.Record(Event{Tick: 1, Step: "recon", Channel: ChanProcess, Leaked: true})
	l.Record(Event{Tick: 3, Step: "tmp", Channel: ChanTmpNames, Residual: true, Leaked: true})
	l.Record(Event{Tick: 4, Step: "dial", Channel: ChanNetwork, Leaked: false, Detail: "dropped"})
	out := l.Table("campaign").Render()
	for _, want := range []string{"LEAK", "leak (residual)", "denied", "first denial at tick 4 (dial)", "2/3 attempts leaked"} {
		if !strings.Contains(out, want) {
			t.Errorf("event table missing %q:\n%s", want, out)
		}
	}
	l2 := NewLog()
	l2.Record(Event{Tick: 1, Step: "recon", Channel: ChanProcess, Leaked: true})
	if out := l2.Table("all-leak").Render(); !strings.Contains(out, "no attempt was ever denied") {
		t.Errorf("undetected campaign table missing the no-denial note:\n%s", out)
	}
}

func TestLogConcurrentRecord(t *testing.T) {
	l := NewLog()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Record(Event{Tick: int64(i), Step: fmt.Sprintf("w%d", worker), Leaked: i%3 == 0})
				_ = l.Len()
				_, _ = l.FirstDetection()
			}
		}(w)
	}
	wg.Wait()
	if l.Len() != 800 {
		t.Errorf("len = %d, want 800", l.Len())
	}
}

package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRecorderSpans(t *testing.T) {
	r := &Recorder{}
	r.StartAttempt("s1", 3, 1)
	r.Begin(0)
	r.End(PhaseReset, 0)
	r.Begin(0)
	r.End(PhaseMix, 0)
	r.Begin(0)
	r.End(PhaseDrain, 120)
	spans := r.Take()
	if len(spans) != 3 {
		t.Fatalf("want 3 spans, got %d", len(spans))
	}
	for i, sp := range spans {
		if sp.Seq != i {
			t.Errorf("span %d: seq %d", i, sp.Seq)
		}
		if sp.Scenario != "s1" || sp.Rep != 3 || sp.Attempt != 1 {
			t.Errorf("span %d: wrong identity %+v", i, sp)
		}
		if sp.WallNS < 0 {
			t.Errorf("span %d: negative wall %d", i, sp.WallNS)
		}
	}
	if spans[2].Phase != PhaseDrain || spans[2].StartTick != 0 || spans[2].EndTick != 120 {
		t.Errorf("drain span wrong: %+v", spans[2])
	}
	if got := r.Take(); got != nil {
		t.Fatalf("Take must reset the buffer, got %d spans", len(got))
	}
}

func TestRecorderRetriedAttemptOrdering(t *testing.T) {
	r := &Recorder{}
	r.StartAttempt("s", 0, 1)
	r.Begin(0)
	r.End(PhaseReset, 0)
	r.Begin(0) // attempt 1 panics mid-mix: half-open phase dropped
	r.Abandon()
	r.StartAttempt("s", 0, 2)
	r.Begin(0)
	r.End(PhaseReset, 0)
	r.Begin(0)
	r.End(PhaseMix, 0)
	spans := r.Take()
	if len(spans) != 3 {
		t.Fatalf("want 3 spans (1 from attempt 1, 2 from attempt 2), got %d", len(spans))
	}
	if spans[0].Attempt != 1 || spans[1].Attempt != 2 || spans[2].Attempt != 2 {
		t.Fatalf("attempt ordering wrong: %+v", spans)
	}
	if spans[1].Seq != 0 {
		t.Fatalf("a new attempt must restart the sequence, got seq %d", spans[1].Seq)
	}
}

func TestRecorderEndWithoutBegin(t *testing.T) {
	r := &Recorder{}
	r.StartAttempt("s", 0, 1)
	r.End(PhaseReset, 0) // no Begin: ignored
	if spans := r.Take(); spans != nil {
		t.Fatalf("End without Begin must record nothing, got %+v", spans)
	}
}

func TestNilRecorder(t *testing.T) {
	var r *Recorder
	r.StartAttempt("s", 0, 1)
	r.Begin(0)
	r.End(PhaseReset, 0)
	r.Abandon()
	if r.Take() != nil {
		t.Fatal("nil recorder must return nil spans")
	}
}

func TestTracerNDJSON(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	spans := []Span{
		{Scenario: "a", Rep: 0, Attempt: 1, Seq: 0, Phase: PhaseReset, StartTick: 0, EndTick: 0, WallNS: 10},
		{Scenario: "a", Rep: 0, Attempt: 1, Seq: 1, Phase: PhaseDrain, StartTick: 0, EndTick: 64, WallNS: 20},
	}
	if err := tr.Write(spans); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 NDJSON lines, got %d:\n%s", len(lines), buf.String())
	}
	for i, line := range lines {
		var back Span
		if err := json.Unmarshal([]byte(line), &back); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", i, err)
		}
		if back != spans[i] {
			t.Fatalf("line %d round-trip mismatch: %+v vs %+v", i, back, spans[i])
		}
	}
	if (*Tracer)(nil).Write(spans) != nil {
		t.Fatal("nil tracer must no-op")
	}
}

func TestAggregatePhases(t *testing.T) {
	spans := []Span{
		{Scenario: "a", Phase: PhaseDrain, StartTick: 0, EndTick: 100, WallNS: 50},
		{Scenario: "a", Phase: PhaseReset, StartTick: 0, EndTick: 0, WallNS: 10},
		{Scenario: "a", Phase: PhaseDrain, StartTick: 0, EndTick: 300, WallNS: 150},
		{Scenario: "b", Phase: PhaseReset, StartTick: 0, EndTick: 0, WallNS: 30},
		{Scenario: "", Phase: PhaseCheckpoint, Seq: 1, WallNS: 5},
	}
	costs := AggregatePhases(spans)
	if len(costs) != 4 {
		t.Fatalf("want 4 cells, got %d: %+v", len(costs), costs)
	}
	// Scenario order: first appearance (a, b), checkpoint group last;
	// phase order within a scenario is canonical (reset before drain).
	if costs[0].Scenario != "a" || costs[0].Phase != PhaseReset {
		t.Fatalf("cell 0 wrong: %+v", costs[0])
	}
	if costs[1].Scenario != "a" || costs[1].Phase != PhaseDrain {
		t.Fatalf("cell 1 wrong: %+v", costs[1])
	}
	if costs[1].Count != 2 || costs[1].Ticks != 400 || costs[1].WallNS != 200 {
		t.Fatalf("drain aggregation wrong: %+v", costs[1])
	}
	if costs[3].Scenario != "" || costs[3].Phase != PhaseCheckpoint {
		t.Fatalf("checkpoint cell must sort last: %+v", costs[3])
	}
}

package audit

import (
	"sync"

	"repro/internal/metrics"
)

// Event is one attack attempt made first-class: a tick-stamped
// record of what was tried, over which channel, and whether the
// defense let it through. Where a Result is a battery row, an Event
// is a point on the campaign timeline — detection latency is
// measured as the tick distance from campaign start to the first
// event with Leaked == false (a denial is the earliest observable a
// defender could alert on).
type Event struct {
	Tick     int64   `json:"tick"`
	Step     string  `json:"step"`
	Channel  Channel `json:"channel"`
	Residual bool    `json:"residual,omitempty"`
	Leaked   bool    `json:"leaked"`
	Detail   string  `json:"detail"`
}

// Log is an append-only, concurrency-safe event stream. Events keep
// their append order (the campaign timeline), unlike a leak scan's
// sorted report — ordering by tick would lose the intra-tick
// sequence of a multi-step campaign.
type Log struct {
	mu     sync.Mutex
	events []Event
}

// NewLog returns an empty event log.
func NewLog() *Log { return &Log{} }

// Record appends an event.
func (l *Log) Record(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, e)
}

// Len returns the number of recorded events.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// Events returns a copy of the stream in append order.
func (l *Log) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event(nil), l.events...)
}

// Reset empties the log for reuse across pooled trials.
func (l *Log) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = l.events[:0]
}

// FirstDetection returns the earliest denied attempt, if any.
func (l *Log) FirstDetection() (Event, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.events {
		if !e.Leaked {
			return e, true
		}
	}
	return Event{}, false
}

// Table renders the event stream as an experiment table, one row per
// attempt in timeline order.
func (l *Log) Table(title string) *metrics.Table {
	t := metrics.NewTable(title, "tick", "step", "channel", "result", "detail")
	leaks := 0
	for _, e := range l.Events() {
		outcome := "denied"
		if e.Leaked {
			leaks++
			outcome = "LEAK"
			if e.Residual {
				outcome = "leak (residual)"
			}
		}
		t.AddRow(e.Tick, e.Step, string(e.Channel), outcome, e.Detail)
	}
	if ev, ok := l.FirstDetection(); ok {
		t.AddNote("%d/%d attempts leaked; first denial at tick %d (%s)", leaks, l.Len(), ev.Tick, ev.Step)
	} else {
		t.AddNote("%d/%d attempts leaked; no attempt was ever denied", leaks, l.Len())
	}
	return t
}

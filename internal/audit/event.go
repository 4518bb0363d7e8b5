package audit

import "repro/internal/metrics"

// Event is one attack attempt made first-class: a tick-stamped
// record of what was tried, over which channel, and whether the
// defense let it through. Where a Result is a battery row, an Event
// is a point on the campaign timeline — detection latency is
// measured as the tick distance from campaign start to the first
// Denied event (a denial is the earliest observable a defender could
// alert on). A campaign's events keep their append
// order, unlike a leak scan's sorted report: ordering by tick would
// lose the intra-tick sequence of a multi-step campaign.
type Event struct {
	Tick     int64
	Step     string
	Channel  Channel
	Residual bool
	Verdict  Verdict
	Detail   Detail
}

// EventTable renders a campaign's events as an experiment table, one
// row per attempt in timeline order, with a note naming the first
// denial.
func EventTable(title string, events []Event) *metrics.Table {
	t := metrics.NewTable(title, "tick", "step", "channel", "result", "detail")
	var n [3]int // events per verdict
	first := -1
	for i, e := range events {
		n[e.Verdict]++
		if e.Verdict == Denied && first < 0 {
			first = i
		}
		t.AddRow(e.Tick, e.Step, string(e.Channel), eventOutcomes.of(e.Verdict, e.Residual), e.Detail.String())
	}
	if first >= 0 {
		t.AddNote("%d/%d attempts leaked; first denial at tick %d (%s)", n[Leaked], len(events), events[first].Tick, events[first].Step)
	} else {
		t.AddNote("%d/%d attempts leaked; no attempt was ever denied", n[Leaked], len(events))
	}
	if n[Inconclusive] > 0 {
		t.AddNote("%d inconclusive: neither a leak nor an observed refusal", n[Inconclusive])
	}
	return t
}

// Package audit records cross-user attack attempts: a Report holds
// one Result per attempted channel (the leak scan's table), a slice of
// Events the tick-stamped attempts of a campaign. The attempts
// themselves live in internal/attack's catalogue. The paper's Results
// section (§V) is, in effect, a claim about which rows of a report
// read "closed" (denied by an observed mechanism) under the enhanced
// configuration — and which three stay "open" (file names in
// world-writable directories, abstract-namespace unix sockets, direct
// IB-CM RDMA).
package audit

import (
	"cmp"
	"fmt"

	"repro/internal/metrics"
)

// Channel labels the attack surface a probe exercises.
type Channel string

// Channels, one per area of paper §IV plus the residual paths of §V.
const (
	ChanProcess   Channel = "process"
	ChanScheduler Channel = "scheduler"
	ChanFS        Channel = "filesystem"
	ChanNetwork   Channel = "network"
	ChanPortal    Channel = "portal"
	ChanGPU       Channel = "gpu"
	ChanContainer Channel = "container"
	ChanTmpNames  Channel = "tmp-names"
	ChanAbstract  Channel = "abstract-socket"
	ChanRDMACM    Channel = "rdma-cm"
)

// Probe names one attack attempt: the row a Result reports on.
type Probe struct {
	Channel Channel
	Name    string
	// Residual marks channels the paper concedes stay open even under
	// the enhanced configuration.
	Residual bool
}

// Compare orders probes by (channel, name): the row order of every
// report, whatever order the probes were registered in.
func Compare(a, b Probe) int {
	return cmp.Or(cmp.Compare(a.Channel, b.Channel), cmp.Compare(a.Name, b.Name))
}

// Verdict is what one attempt established: the attacker saw the
// victim's data or reached its resource (Leaked), a separation
// mechanism was observed refusing it (Denied), or neither was shown —
// a setup failed, or the attempt saw nothing it could attribute to a
// measure (Inconclusive). The zero value is Inconclusive, so a verdict
// nobody decided never reads as closed.
type Verdict uint8

// The three verdicts.
const (
	Inconclusive Verdict = iota
	Denied
	Leaked
)

// outcomes names each verdict in one table's words, a leak over a
// residual channel last.
type outcomes [4]string

var (
	reportOutcomes = outcomes{"INCONCLUSIVE", "closed", "LEAK", "open (residual)"}
	eventOutcomes  = outcomes{"INCONCLUSIVE", "denied", "LEAK", "leak (residual)"}
)

// of renders v for a probe over a residual channel or not.
func (o *outcomes) of(v Verdict, residual bool) string {
	if v == Leaked && residual {
		return o[3]
	}
	return o[v]
}

// Result is one executed attempt and its verdict.
type Result struct {
	Probe   Probe
	Verdict Verdict
	Detail  Detail
}

// Detail explains a Result or an Event. It keeps what the attempt
// observed (the error a mechanism returned, a PID, a byte count)
// unformatted, so an attempt whose row is never printed never builds
// its text: String renders it, and only a report or table calls it.
type Detail struct {
	text string
	arg  any
	verb bool
}

// Note is a Detail whose text is fixed.
func Note(text string) Detail { return Detail{text: text} }

// Denial is a Detail whose text is fixed and that keeps err, the
// refusal the attempt observed, for Err without printing it.
func Denial(text string, err error) Detail { return Detail{text: text, arg: err} }

// Detailf is a Detail that renders as fmt.Sprintf(format, arg); format
// has exactly one verb.
func Detailf(format string, arg any) Detail { return Detail{text: format, arg: arg, verb: true} }

// Err returns the error the attempt observed, if the Detail carries
// one.
func (d Detail) Err() error {
	err, _ := d.arg.(error)
	return err
}

func (d Detail) String() string {
	if !d.verb {
		return d.text
	}
	return fmt.Sprintf(d.text, d.arg)
}

// Report aggregates a scan.
type Report struct {
	ConfigName string
	Results    []Result
}

// Leaks returns how many probes leaked, split into unexpected leaks
// and residual (paper-acknowledged) leaks.
func (r *Report) Leaks() (unexpected, residual int) {
	for _, res := range r.Results {
		if res.Verdict != Leaked {
			continue
		}
		if res.Probe.Residual {
			residual++
		} else {
			unexpected++
		}
	}
	return
}

// Table renders the report as an experiment table.
func (r *Report) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("leak scan — %s", r.ConfigName),
		"channel", "probe", "result", "detail",
	)
	var n [3]int // results per verdict
	for _, res := range r.Results {
		n[res.Verdict]++
		t.AddRow(string(res.Probe.Channel), res.Probe.Name, reportOutcomes.of(res.Verdict, res.Probe.Residual), res.Detail.String())
	}
	u, resd := r.Leaks()
	t.AddNote("%d closed, %d unexpected leaks, %d residual channels open", n[Denied], u, resd)
	if n[Inconclusive] > 0 {
		t.AddNote("%d inconclusive: neither a leak nor an observed refusal", n[Inconclusive])
	}
	return t
}

// Package audit records cross-user attack attempts: a Report holds
// one Result per attempted channel (the leak scan's table), a slice of
// Events the tick-stamped attempts of a campaign. The attempts
// themselves live in internal/attack's catalogue. The paper's Results
// section (§V) is, in effect, a claim about which rows of a report
// read "closed" under the enhanced configuration — and which three
// stay "open" (file names in world-writable directories,
// abstract-namespace unix sockets, direct IB-CM RDMA).
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

// Result is one executed attempt: whether information leaked (or
// access succeeded) across users.
type Result struct {
	Probe  Probe
	Leaked bool
	Detail Detail
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

// Cause is a Detail that renders as err's text.
func Cause(err error) Detail { return Detailf("%v", err) }

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
		if !res.Leaked {
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

// Closed returns how many probes were blocked.
func (r *Report) Closed() int {
	n := 0
	for _, res := range r.Results {
		if !res.Leaked {
			n++
		}
	}
	return n
}

// Table renders the report as an experiment table.
func (r *Report) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("leak scan — %s", r.ConfigName),
		"channel", "probe", "result", "detail",
	)
	for _, res := range r.Results {
		outcome := "closed"
		if res.Leaked {
			outcome = "LEAK"
			if res.Probe.Residual {
				outcome = "open (residual)"
			}
		}
		t.AddRow(string(res.Probe.Channel), res.Probe.Name, outcome, res.Detail.String())
	}
	u, resd := r.Leaks()
	t.AddNote("%d closed, %d unexpected leaks, %d residual channels open", r.Closed(), u, resd)
	return t
}

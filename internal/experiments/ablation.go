package experiments

// E16: the ablation matrix the paper argues qualitatively but never
// prints. §IV presents enhanced user separation as a COORDINATED set
// of individually deployable measures; E16 makes the coordination
// visible by building "enhanced minus one measure" for every entry
// of the core registry and probing which cross-user channels reopen
// (the E1/E3/E5/E6/E7/E9/E11/E12 labels of internal/attack's probe
// catalogue) plus what the ablation does to utilization and OOM blast
// radius (the E4 drain).
// The expected shape is a diagonal: each measure reopens exactly the
// channels its paper section claims to close.

import (
	"fmt"
	"strings"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/metrics"
)

// AblationRow is one Enhanced-minus-one measurement.
type AblationRow struct {
	Measure  string // ablated measure name; "(none)" for the control
	Section  string
	Reopened []string // channel labels that leaked (empty = all held)
	// Util / Cofailures come from the E4-style drain under the
	// ablated config; UtilDelta is Util minus the control's.
	Util       float64
	UtilDelta  float64
	Cofailures int
}

// reopenedChannels builds a fresh cluster under cfg and returns the
// E16 labels its probe catalogue entries reopened.
func reopenedChannels(cfg core.Config) ([]string, error) {
	c, err := core.New(cfg, topo())
	if err != nil {
		return nil, err
	}
	return attack.Reopened(c)
}

// utilizationDrain runs a deterministic E4-style short-job campaign
// with OOM faults under cfg and reports utilization and cross-user
// cofailures.
func utilizationDrain(cfg core.Config) (util float64, cofail int, err error) {
	// The mix is the shared fleet.E16DrainMix definition (also the
	// e16-ablation-drain campaign preset), built with the sweep's
	// pinned seed.
	c, _, err := drainMix(cfg, fleet.E16DrainMix(), 16)
	if err != nil {
		return 0, 0, err
	}
	_, cofail = c.Sched.Crashes()
	return c.Sched.Utilization(), cofail, nil
}

// AblationSweep builds the full Enhanced-minus-one sweep: the
// control row (nothing ablated) followed by one row per registry
// measure, in §IV order.
func AblationSweep() ([]AblationRow, error) {
	control := AblationRow{Measure: "(none)", Section: "—"}
	enhanced := core.Enhanced()
	var err error
	if control.Reopened, err = reopenedChannels(enhanced); err != nil {
		return nil, fmt.Errorf("control probes: %w", err)
	}
	if control.Util, control.Cofailures, err = utilizationDrain(enhanced); err != nil {
		return nil, fmt.Errorf("control drain: %w", err)
	}
	rows := []AblationRow{control}

	for _, m := range core.Measures() {
		p, _, err := core.ResolveProfile(core.EnhancedProfile(), core.Without(m.Name))
		if err != nil {
			return nil, err
		}
		cfg, err := p.Config()
		if err != nil {
			return nil, err
		}
		row := AblationRow{Measure: m.Name, Section: m.Section}
		if row.Reopened, err = reopenedChannels(cfg); err != nil {
			return nil, fmt.Errorf("ablate %s: %w", m.Name, err)
		}
		if row.Util, row.Cofailures, err = utilizationDrain(cfg); err != nil {
			return nil, fmt.Errorf("ablate %s drain: %w", m.Name, err)
		}
		row.UtilDelta = row.Util - control.Util
		rows = append(rows, row)
	}
	return rows, nil
}

// E16AblationMatrix renders the sweep as the paper-style matrix:
// rows = ablated measure, columns = reopened channels + the E4 drain
// numbers.
func E16AblationMatrix() *metrics.Table {
	t := metrics.NewTable("E16: enhanced-minus-one-measure ablation matrix",
		"ablated measure", "paper", "channels reopened", "util", "util Δ", "cofail")
	rows, err := AblationSweep()
	if err != nil {
		panic(err)
	}
	for _, r := range rows {
		reopened := "—"
		if len(r.Reopened) > 0 {
			reopened = strings.Join(r.Reopened, ", ")
		}
		delta := "—"
		if r.Measure != "(none)" {
			delta = fmt.Sprintf("%+.3f", r.UtilDelta)
		}
		t.AddRow(r.Measure, r.Section, reopened, fmt.Sprintf("%.3f", r.Util), delta, r.Cofailures)
	}
	t.AddNote("each row rebuilds the cluster from EnhancedProfile() minus one registry measure")
	t.AddNote("diagonal shape = the paper's claim: every measure closes its own channel, none is redundant cover for another")
	t.AddNote("gpu row: both E9 entries close under the gpu measure alone; wholenode masks the missing epilog clear only while the victim's long job holds its node (leakscan's gpu-memory-residue, outside E9)")
	return t
}

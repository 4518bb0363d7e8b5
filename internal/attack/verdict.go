package attack

import (
	"repro/internal/audit"
	"repro/internal/container"
	"repro/internal/gpu"
	"repro/internal/netsim"
	"repro/internal/portal"
	"repro/internal/procfs"
	"repro/internal/sched"
	"repro/internal/simos"
	"repro/internal/vfs"
)

// observation is what one attempt saw: the evidence of a leak, or the
// refusal, failure or empty view that stopped it. Attempts only report
// it; verdictOf alone decides what it establishes.
type observation struct {
	detail audit.Detail
	leak   bool
	// present: the attempt confirmed that what its view came back
	// without was there to be seen — the victim's pid still in the
	// node's table, its job still running, its secret on the device the
	// attacker read or on a node the attacker was kept off.
	present bool
}

// leaked is the evidence of a leak.
func leaked(d audit.Detail) observation { return observation{detail: d, leak: true} }

// stopped is an attempt stopped by the error d keeps, or by nothing
// the attempt can name when d keeps none.
func stopped(d audit.Detail) observation { return observation{detail: d} }

// stoppedBy is an attempt stopped by err, printed as it is.
func stoppedBy(err error) observation { return stopped(audit.Detailf("%v", err)) }

// omitted is a view that came back without the victim; present says
// whether the attempt confirmed the victim was there to be seen.
func omitted(d audit.Detail, present bool) observation {
	return observation{detail: d, present: present}
}

// verdictOf is the one place a verdict is decided. Evidence is a leak.
// A refusal is a denial only when a separation mechanism issued it: a
// typed denial of DESIGN.md §7 carrying a refusal sentinel, or a
// hidepid error of procfs. An empty view is a denial only when the
// attempt confirmed the victim was present. Everything else — a setup
// that failed, whatever its error, or an empty view of an absent
// victim — is inconclusive.
func verdictOf(o observation) audit.Verdict {
	switch {
	case o.leak:
		return audit.Leaked
	case refused(o.detail.Err(), o.present):
		return audit.Denied
	}
	return audit.Inconclusive
}

// refused reports whether err, or with no error a confirmed omission,
// is a separation mechanism's refusal. A type switch, not errors.As:
// the mechanisms return their denials unwrapped, and a setupError
// hides whatever it wraps.
func refused(err error, present bool) bool {
	switch e := err.(type) {
	case nil:
		return present
	case *vfs.PathError:
		return e.Err == vfs.ErrPermission
	case *netsim.FlowError:
		return e.Err == netsim.ErrConnDropped
	case *portal.ForwardError:
		return e.Err == portal.ErrForbidden
	case *container.AdmissionError:
		return e.Err == container.ErrPrivileged
	case *vfs.SymlinkError, *vfs.ACLError, *sched.PAMError, *simos.LoginError,
		*simos.DevError, *gpu.DeviceError:
		return true // the sentinel under Unwrap is fixed, and a refusal
	}
	return err == procfs.ErrHidden || err == procfs.ErrNotFound && present
}

// setupError is a failure to set up the victim state an attempt
// targets: it reads inconclusive whatever it wraps, since no measure
// was ever tried.
type setupError struct{ err error }

func (e *setupError) Error() string { return e.err.Error() }

func (e *setupError) Unwrap() error { return e.err }

// setupFailed marks err, if any, as a setup failure.
func setupFailed(err error) error {
	switch err.(type) {
	case nil, *setupError:
		return err
	}
	return &setupError{err}
}

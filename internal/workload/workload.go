// Package workload generates the job mixes the paper's environment
// runs: large volumes of short bulk-synchronous jobs (parameter
// sweeps, Monte Carlo simulations, §IV-B) and MPI-style jobs whose
// ranks talk TCP across their allocated nodes (§IV-D). These drive
// the scheduling-policy experiment (E4) and the UBF experiments
// (E7/E8).
package workload

import (
	"fmt"

	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// Submission pairs a credential with a job spec.
type Submission struct {
	Cred ids.Credential
	Spec sched.JobSpec
}

// MixSpec declaratively describes a multi-user campaign mix — the
// contended-scheduler scenario of E4 as data instead of code, so
// campaign files (internal/fleet) can carry workloads. Build turns
// it into a submission stream given one credential per user.
type MixSpec struct {
	Users       int    `json:"users"`
	JobsPerUser int    `json:"jobs_per_user"`
	Kind        string `json:"kind,omitempty"` // "sweep" (default) or "montecarlo"
	MinCores    int    `json:"min_cores"`
	MaxCores    int    `json:"max_cores"`
	MinDur      int64  `json:"min_dur"`
	MaxDur      int64  `json:"max_dur"`
	MemB        int64  `json:"mem_b"`
	// OOMEvery > 0 marks every OOMEvery-th job of the interleaved
	// stream as exceeding its memory request: its ActualMemB is
	// OOMMemB, the failure mode whole-node scheduling contains.
	OOMEvery int   `json:"oom_every,omitempty"`
	OOMMemB  int64 `json:"oom_mem_b,omitempty"`
}

// Validate rejects degenerate specs with descriptive errors.
func (m MixSpec) Validate() error {
	if m.Users < 1 {
		return fmt.Errorf("workload: mix needs at least 1 user (got %d)", m.Users)
	}
	if m.JobsPerUser < 1 {
		return fmt.Errorf("workload: mix needs at least 1 job per user (got %d)", m.JobsPerUser)
	}
	switch m.Kind {
	case "", "sweep", "montecarlo":
	default:
		return fmt.Errorf("workload: unknown mix kind %q (sweep, montecarlo)", m.Kind)
	}
	if m.MinCores < 1 || m.MaxCores < m.MinCores {
		return fmt.Errorf("workload: bad core range [%d, %d]", m.MinCores, m.MaxCores)
	}
	if m.MinDur < 1 || m.MaxDur < m.MinDur {
		return fmt.Errorf("workload: bad duration range [%d, %d]", m.MinDur, m.MaxDur)
	}
	if m.MemB < 1 {
		return fmt.Errorf("workload: non-positive job memory %d", m.MemB)
	}
	if m.OOMEvery < 0 {
		return fmt.Errorf("workload: negative OOMEvery %d", m.OOMEvery)
	}
	if m.OOMEvery > 0 && m.OOMMemB < 1 {
		return fmt.Errorf("workload: OOMEvery set but OOMMemB is %d", m.OOMMemB)
	}
	return nil
}

// Build generates the interleaved stream deterministically from rng:
// one child generator per user in credential order, each seeded by
// one draw of rng and driving that user's whole batch, the batches
// interleaved round-robin, then OOM injection. len(users) must equal
// m.Users so the spec stays the single source of truth for the mix's
// shape.
//
// Build is BuildInto over a throwaway scratch; both match the
// batch-by-batch reference construction draw for draw (pinned by
// TestBuildIntoMatchesLegacyConstruction).
func (m MixSpec) Build(rng *metrics.RNG, users []ids.Credential) ([]Submission, error) {
	var sc BuildScratch
	return m.BuildInto(rng, users, &sc)
}

// BuildScratch reuses allocations across repeated BuildInto calls:
// the submission slice, and the per-index job name / command strings
// (which depend only on the stream index, never on the RNG). One
// scratch serves one spec shape at a time; BuildInto rebuilds the
// caches when the spec changes.
type BuildScratch struct {
	subs  []Submission
	names []string // per-index Spec.Name ("sweep-0", "mc-3", ...)
	cmds  []string // per-index sweep command; unused for montecarlo
	kind  string   // spec shape the caches were built for
	jobs  int
}

// BuildInto is Build writing into sc's reusable buffers: on a warm
// scratch the sweep kind allocates nothing at all, and montecarlo
// allocates only its per-trial command strings (they embed RNG
// draws). The returned slice aliases sc and is valid until the next
// BuildInto on the same scratch.
func (m MixSpec) BuildInto(rng *metrics.RNG, users []ids.Credential, sc *BuildScratch) ([]Submission, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if len(users) != m.Users {
		return nil, fmt.Errorf("workload: spec wants %d users, got %d credentials", m.Users, len(users))
	}
	kind := m.Kind
	if kind == "" {
		kind = "sweep"
	}
	if sc.kind != kind || sc.jobs != m.JobsPerUser {
		sc.names = make([]string, m.JobsPerUser)
		sc.cmds = make([]string, m.JobsPerUser)
		for i := range sc.names {
			if kind == "montecarlo" {
				sc.names[i] = fmt.Sprintf("mc-%d", i)
			} else {
				sc.names[i] = fmt.Sprintf("sweep-%d", i)
				sc.cmds[i] = fmt.Sprintf("simulate --param=%d", i)
			}
		}
		sc.kind, sc.jobs = kind, m.JobsPerUser
	}
	total := m.Users * m.JobsPerUser
	if cap(sc.subs) < total {
		sc.subs = make([]Submission, total)
	}
	out := sc.subs[:total]

	// The draw order: one child per user in credential order, seeded
	// by one draw of rng, then that child drives the user's whole
	// batch — cores and duration per job, then (montecarlo) one seed
	// per job. The round-robin interleaving of the equal-length
	// batches a MixSpec produces puts user u's i-th job at i*Users+u.
	var child metrics.RNG
	for u, cred := range users {
		child.Reseed(rng.Uint64())
		for i := 0; i < m.JobsPerUser; i++ {
			cores := m.MinCores
			if m.MaxCores > m.MinCores {
				cores += child.Intn(m.MaxCores - m.MinCores + 1)
			}
			dur := m.MinDur
			if m.MaxDur > m.MinDur {
				dur += int64(child.Intn(int(m.MaxDur - m.MinDur + 1)))
			}
			out[i*m.Users+u] = Submission{
				Cred: cred,
				Spec: sched.JobSpec{
					Name:     sc.names[i],
					Command:  sc.cmds[i],
					Cores:    cores,
					MemB:     m.MemB,
					Duration: dur,
				},
			}
		}
		if kind == "montecarlo" {
			for i := 0; i < m.JobsPerUser; i++ {
				out[i*m.Users+u].Spec.Command = fmt.Sprintf("montecarlo --seed=%d --trials=1000000", child.Uint64())
			}
		}
	}
	if m.OOMEvery > 0 {
		for i := range out {
			if i%m.OOMEvery == m.OOMEvery-1 {
				out[i].Spec.ActualMemB = m.OOMMemB
			}
		}
	}
	return out, nil
}

// SubmitAll submits a stream, returning job IDs in submit order.
func SubmitAll(s *sched.Scheduler, subs []Submission) ([]int, error) {
	idsOut := make([]int, 0, len(subs))
	for _, sub := range subs {
		id, err := s.Submit(sub.Cred, sub.Spec)
		if err != nil {
			return idsOut, err
		}
		idsOut = append(idsOut, id)
	}
	return idsOut, nil
}

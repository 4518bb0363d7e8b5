package fleet

// Shard execution: the replication-range-restricted run underneath
// the fleetd supervision layer (internal/fleet/shard).
//
// A shard is a slice of a campaign — per scenario, a half-open
// replication sub-range — executed by the SAME engine as Run, under
// the same determinism contract. Its result artifact is deliberately
// not a CampaignResult but its checkpoint journal: per-trial
// aggregates at global replication indices, which the supervisor
// reduces with MergeScenario — the same partialFold Run folds its
// trials with — so a sharded campaign's merged JSON is byte-identical
// to a 1-process run by construction. The same journal doubles as the
// shard's recovery state — a killed or wedged shard worker resumes
// from it instead of recomputing, exactly like an interrupted
// fleetrun — and its growth is the shard's liveness signal.

import (
	"errors"
	"fmt"
)

// ErrShardKilled reports a shard run that died abruptly to an armed
// ShardKill fault without a Die hook: recording stopped at the fault
// point, no final checkpoint was written, and the journal on disk
// holds exactly the trials checkpointed before the kill.
var ErrShardKilled = errors.New("fleet: shard killed by fault plan (checkpoint frozen at the kill point)")

// ErrShardWedged reports a shard run that was blackholed: it silently
// completed or abandoned its remaining work with its journal frozen,
// lingered until Options.Interrupt fired, and wrote no final
// checkpoint.
var ErrShardWedged = errors.New("fleet: shard wedged by blackhole fault (checkpoint journal frozen)")

// RepRange is a half-open replication sub-range [Lo, Hi) of one
// scenario. An empty range (Lo == Hi) is valid: a shard may have no
// trials for a scenario (replications < shards).
type RepRange struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Len returns the number of replications in the range.
func (r RepRange) Len() int { return r.Hi - r.Lo }

// ShardRun identifies one supervised shard attempt.
type ShardRun struct {
	// Index / Count place this run in the shard plan; Index keys
	// FaultPlan shard faults.
	Index int
	Count int
	// Attempt is the supervisor's 1-based retry attempt; shard faults
	// fire only while Attempt <= their Attempts budget (default 1),
	// so a retried shard recovers deterministically. 0 means 1.
	Attempt int
	// Ranges is the per-scenario replication sub-range, aligned with
	// the campaign's scenario order (the shard planner's output).
	Ranges []RepRange
	// Die, when non-nil, is called when a ShardKill fault fires — the
	// re-exec'd fleetrun worker SIGKILLs itself here, making the
	// death a real abrupt process exit. When nil (in-process workers)
	// or when Die returns, the run dies softly with ErrShardKilled.
	Die func()
}

// validate rejects a shard spec the campaign cannot satisfy and
// defaults Attempt.
func (sh *ShardRun) validate(c Campaign) error {
	if sh.Count < 1 || sh.Index < 0 || sh.Index >= sh.Count {
		return fmt.Errorf("fleet: shard index %d outside [0, %d)", sh.Index, sh.Count)
	}
	if sh.Attempt == 0 {
		sh.Attempt = 1
	}
	if sh.Attempt < 1 {
		return fmt.Errorf("fleet: shard attempt %d is not 1-based", sh.Attempt)
	}
	if len(sh.Ranges) != len(c.Scenarios) {
		return fmt.Errorf("fleet: shard has %d ranges, campaign has %d scenarios", len(sh.Ranges), len(c.Scenarios))
	}
	for i, r := range sh.Ranges {
		if r.Lo < 0 || r.Hi < r.Lo || r.Hi > c.Scenarios[i].Replications {
			return fmt.Errorf("fleet: shard range [%d, %d) invalid for scenario %q with %d replications",
				r.Lo, r.Hi, c.Scenarios[i].Name, c.Scenarios[i].Replications)
		}
	}
	return nil
}

// RunShard executes the shard's slice of the campaign and returns the
// number of trials its journal holds, restored ones included, plus the
// structured failure ledger. Options.CheckpointPath is required: the
// journal IS the shard's result — per-trial aggregates at global
// replication indices, the artifact the supervisor merges — appended
// periodically for recovery and once more on success, so a trial is
// dropped from memory once it is encoded there. Resume, panic
// isolation, interrupt drain and campaign-level chaos all behave
// exactly as under Run; shard-level FaultPlan faults (kill, blackhole,
// slow) additionally arm against sh's (Index, Attempt).
func RunShard(c Campaign, opt Options, sh ShardRun) (int, []TrialFailure, error) {
	if opt.CheckpointPath == "" {
		return 0, nil, fmt.Errorf("fleet: RunShard requires Options.CheckpointPath (the journal is the shard's result artifact)")
	}
	if err := c.Validate(); err != nil {
		return 0, nil, err
	}
	if err := sh.validate(c); err != nil {
		return 0, nil, err
	}
	st, err := execute(c, opt, sh.Ranges, &sh)
	if err != nil {
		if st == nil {
			return 0, nil, err
		}
		return 0, st.failures, err
	}
	if st.finalCkErr != nil {
		return 0, st.failures, fmt.Errorf("fleet: shard %d completed but its final checkpoint write failed: %w", sh.Index, st.finalCkErr)
	}
	return st.journaled, st.failures, nil
}

// DegradedTrialResult is the aggregate a trial degrades to when it
// cannot be completed — every panic retry exhausted, or its shard's
// supervisor retry budget spent: zero samples under the scenario's
// histogram layout (so trial-index-order merging is untouched) and
// one counted failure. An attacked scenario's degraded trial carries
// an empty attack aggregate for the same reason: Merge requires every
// partial of a scenario to agree on attack presence.
func DegradedTrialResult(s *Scenario) *ScenarioResult {
	tr := newTrialResult(s)
	tr.res.Failures = 1
	return &tr.res
}

package fleet

// Checkpoint/resume: the crash-recovery state of a campaign run.
//
// The executor's determinism contract (trial RNG streams keyed by
// (scenario name, replication index), fixed-size per-trial
// aggregates, trial-index-order reduction) makes recovery *provable*
// rather than best-effort: a checkpoint records exactly which trials
// completed and each trial's own aggregate, so a resumed run skips
// the completed trials, re-runs only the missing ones under their
// unchanged stream seeds, and merges everything in the same
// trial-index order — the final JSON is byte-identical to a run that
// was never interrupted. (Float fidelity holds because encoding/json
// emits the shortest decimal that round-trips a float64 exactly.)
//
// On disk a checkpoint is an append-only journal (journal.go): a run
// creates it atomically once and then appends each batch of completed
// trials with one write and one fsync, so a writer SIGKILLed
// mid-append leaves at most a torn final line, which LoadCheckpoint
// drops.

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
)

// CheckpointFormat versions the journal layout; the loader rejects a
// journal whose header names any other format.
const CheckpointFormat = 2

// Checkpoint is the resumable state of a partially-executed campaign:
// identity (campaign name + canonical-encoding hash + master seed)
// plus, per scenario, one slot per replication holding that trial's
// own aggregate, nil while the trial is not done. The executor's trial
// table is one too: Run's holds the trials that landed ahead of their
// scenario's fold frontier (tableFold).
type Checkpoint struct {
	Campaign     string
	CampaignHash uint64
	Seed         uint64
	Scenarios    []ScenarioCheckpoint
}

// ScenarioCheckpoint is one scenario's recovery state. Trials is
// indexed by replication; an aggregate holds exactly one trial
// (Replications 1 for a success, Failures 1 for a trial that exhausted
// its panic-retry budget and degraded). The loader allocates Trials on
// the scenario's first trial line, so it may be shorter than
// Replications: read it through Checkpoint.Trial.
type ScenarioCheckpoint struct {
	Name         string
	Replications int
	Trials       []*ScenarioResult
}

// Trial returns scenario si's aggregate for replication rep, or nil if
// that trial is not done.
func (ck *Checkpoint) Trial(si, rep int) *ScenarioResult {
	if t := ck.Scenarios[si].Trials; rep < len(t) {
		return t[rep]
	}
	return nil
}

// Completed returns the number of done trials.
func (ck *Checkpoint) Completed() int {
	n := 0
	for _, sc := range ck.Scenarios {
		for _, r := range sc.Trials {
			if r != nil {
				n++
			}
		}
	}
	return n
}

// CampaignHash fingerprints a campaign via the FNV-1a 64 hash of its
// canonical JSON encoding, so a checkpoint binds to the exact
// campaign definition: any edit — a renamed scenario, a different
// horizon, a reordered grid — changes the hash and resume is
// rejected rather than silently merging incompatible trials.
func CampaignHash(c Campaign) (uint64, error) {
	data, err := EncodeCampaign(c)
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64(), nil
}

// newCheckpoint returns the campaign's empty trial table: one
// allocation in trial-index order, sliced per scenario.
func newCheckpoint(c Campaign, hash, seed uint64) *Checkpoint {
	ck := &Checkpoint{Campaign: c.Name, CampaignHash: hash, Seed: seed, Scenarios: make([]ScenarioCheckpoint, len(c.Scenarios))}
	table := make([]*ScenarioResult, c.Trials())
	for si, s := range c.Scenarios {
		n := s.Replications
		ck.Scenarios[si] = ScenarioCheckpoint{Name: s.Name, Replications: n, Trials: table[:n:n]}
		table = table[n:]
	}
	return ck
}

// MergeCheckpoints folds checkpoints into the campaign's result:
// fleetd's reduction over its shards' journals, and the one Run's
// incremental fold must equal. Every checkpoint is validated against
// the (campaign, seed) identity first, exactly like a resume. Per
// scenario, single-trial partials merge in replication (= trial-index)
// order, so for a complete trial set the JSON() bytes are the same
// however the trials were split across processes and restarts.
//
// A replication present in more than one checkpoint is an error (shard
// ranges are disjoint; overlap means the caller mixed journals from
// different plans). A missing replication is an error unless degrade
// is true, in which case it merges as DegradedTrialResult — the
// terminal state of a shard that exhausted its supervisor retry budget.
func MergeCheckpoints(c Campaign, seed uint64, cks []*Checkpoint, degrade bool) (*CampaignResult, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	for _, ck := range cks {
		if err := ck.ValidateAgainst(c, seed); err != nil {
			return nil, err
		}
	}
	res := &CampaignResult{Campaign: c.Name, Seed: seed}
	for si := range c.Scenarios {
		agg, err := MergeScenario(c, cks, si, degrade)
		if err != nil {
			return nil, err
		}
		res.Scenarios = append(res.Scenarios, agg)
	}
	return res, nil
}

// MergeScenario is MergeCheckpoints for scenario si alone, on already
// validated checkpoints (nil entries are skipped, so a caller can pass
// live snapshots where some shards have not written a journal yet).
// Each replication's partial comes from the one checkpoint whose slot
// is filled, and the partials go through one partialFold in
// replication order, so the inputs are never mutated: one checkpoint
// set can be merged more than once, and restored partials may alias a
// caller's ResumeFrom.
func MergeScenario(c Campaign, cks []*Checkpoint, si int, degrade bool) (*ScenarioResult, error) {
	spec := &c.Scenarios[si]
	var f partialFold
	for rep := 0; rep < spec.Replications; rep++ {
		var p *ScenarioResult
		for _, ck := range cks {
			if ck == nil {
				continue
			}
			if q := ck.Trial(si, rep); q != nil {
				if p != nil {
					return nil, fmt.Errorf("fleet: scenario %q replication %d appears in more than one checkpoint (mixed shard plans?)", spec.Name, rep)
				}
				p = q
			}
		}
		if p == nil {
			if !degrade {
				return nil, fmt.Errorf("fleet: scenario %q replication %d missing from every checkpoint", spec.Name, rep)
			}
			p = DegradedTrialResult(spec)
		}
		if err := f.add(p); err != nil {
			return nil, err
		}
	}
	return f.agg, nil
}

// partialFold is the reduction of one scenario's partials, fed one at
// a time in replication order: the first is cloned and every later one
// is merged into the clone, so no input is mutated. MergeScenario and
// Run's tableFold are its two callers; sharing it is what makes a run
// that folds as it goes give MergeCheckpoints' bytes.
type partialFold struct{ agg *ScenarioResult }

func (f *partialFold) add(p *ScenarioResult) error {
	if f.agg == nil {
		f.agg = clonePartial(p)
		return nil
	}
	return f.agg.Merge(p)
}

// tableFold reduces a trial table while it fills. Each scenario has
// its own frontier, the first replication whose slot is still empty;
// advance(si) folds every filled slot before scenario si's frontier
// into its partialFold and clears the slot. The table therefore holds
// only the trials that landed ahead of their scenario's frontier, each
// scenario's folds run in MergeCheckpoints' (replication) order
// whatever order the slots fill in, and a slow scenario holds back no
// other. The first fold error stops every frontier for good and is
// kept for result.
type tableFold struct {
	ck     *Checkpoint
	rep    []int // per scenario, the frontier
	scen   []partialFold
	parked int // trials in the table ahead of their frontier
	peak   int // the most trials parked at once
	err    error
}

// newTableFold starts the fold of ck, folding at once the filled slots
// at the head of every scenario (restored trials, under a resume).
func newTableFold(ck *Checkpoint) *tableFold {
	f := &tableFold{ck: ck, rep: make([]int, len(ck.Scenarios)), scen: make([]partialFold, len(ck.Scenarios))}
	f.parked = ck.Completed()
	for si := range ck.Scenarios {
		f.advance(si)
	}
	f.peak = f.parked
	return f
}

// land files trial (si, rep) in the table and advances si's frontier.
// It reports whether the frontier passed the trial, which the table
// then no longer holds.
func (f *tableFold) land(si, rep int, p *ScenarioResult) bool {
	f.ck.Scenarios[si].Trials[rep] = p
	f.parked++
	f.advance(si)
	f.peak = max(f.peak, f.parked)
	return f.rep[si] > rep
}

func (f *tableFold) advance(si int) {
	sc := &f.ck.Scenarios[si]
	for f.err == nil && f.rep[si] < sc.Replications {
		p := f.ck.Trial(si, f.rep[si])
		if p == nil {
			return
		}
		f.err = f.scen[si].add(p)
		sc.Trials[f.rep[si]] = nil
		f.parked--
		f.rep[si]++
	}
}

// result is the campaign's result, once every frontier has passed
// every trial of its scenario.
func (f *tableFold) result(c Campaign, seed uint64) (*CampaignResult, error) {
	if f.err != nil {
		return nil, f.err
	}
	for si, rep := range f.rep {
		if rep < c.Scenarios[si].Replications {
			return nil, fmt.Errorf("fleet: scenario %q replication %d was never folded", c.Scenarios[si].Name, rep)
		}
	}
	res := &CampaignResult{Campaign: c.Name, Seed: seed, Scenarios: make([]*ScenarioResult, len(f.scen))}
	for si := range f.scen {
		res.Scenarios[si] = f.scen[si].agg
	}
	return res, nil
}

// clonePartial deep-copies a partial (the histogram's bucket slice and
// the attack aggregate are the reference fields) so the merge target
// never aliases checkpoint-owned storage.
func clonePartial(p *ScenarioResult) *ScenarioResult {
	r := *p
	h := *p.MakespanHist
	h.Counts = append([]int64(nil), h.Counts...)
	r.MakespanHist = &h
	if r.Attack != nil {
		r.Attack = r.Attack.Clone()
	}
	return &r
}

// ValidateAgainst rejects a checkpoint that cannot resume the given
// (campaign, seed): identity mismatches (name, campaign hash, seed,
// scenario names and replication counts) and filled slots whose
// aggregates could not have come from this campaign's trials.
func (ck *Checkpoint) ValidateAgainst(c Campaign, seed uint64) error {
	if ck.Campaign != c.Name {
		return fmt.Errorf("fleet: checkpoint is for campaign %q, not %q", ck.Campaign, c.Name)
	}
	if ck.Seed != seed {
		return fmt.Errorf("fleet: checkpoint seed %d does not match master seed %d (trial streams would differ)", ck.Seed, seed)
	}
	hash, err := CampaignHash(c)
	if err != nil {
		return err
	}
	if ck.CampaignHash != hash {
		return fmt.Errorf("fleet: checkpoint campaign hash %#x does not match the loaded campaign's %#x (the definition changed since the checkpoint was taken)", ck.CampaignHash, hash)
	}
	if len(ck.Scenarios) != len(c.Scenarios) {
		return fmt.Errorf("fleet: checkpoint has %d scenarios, campaign has %d", len(ck.Scenarios), len(c.Scenarios))
	}
	for i := range ck.Scenarios {
		sc := &ck.Scenarios[i]
		spec := &c.Scenarios[i]
		if sc.Name != spec.Name {
			return fmt.Errorf("fleet: checkpoint scenario %d is %q, campaign has %q", i, sc.Name, spec.Name)
		}
		if sc.Replications != spec.Replications {
			return fmt.Errorf("fleet: checkpoint scenario %q has %d replications, campaign has %d", sc.Name, sc.Replications, spec.Replications)
		}
		for rep, r := range sc.Trials {
			if r == nil {
				continue
			}
			if err := validatePartial(spec, rep, r); err != nil {
				return fmt.Errorf("fleet: %w", err)
			}
		}
	}
	return nil
}

// validatePartial rejects a partial that could not have come from one
// of spec's trials: a replication out of range, another scenario's
// result, more or less than one trial, a foreign histogram layout, or
// attack presence that disagrees with the spec.
func validatePartial(spec *Scenario, rep int, r *ScenarioResult) error {
	if rep < 0 || rep >= spec.Replications {
		return fmt.Errorf("checkpoint scenario %q: partial for replication %d outside [0, %d)", spec.Name, rep, spec.Replications)
	}
	if r.Name != spec.Name {
		return fmt.Errorf("checkpoint scenario %q: partial carries result for %q", spec.Name, r.Name)
	}
	if r.Replications+r.Failures != 1 {
		return fmt.Errorf("checkpoint scenario %q replication %d: a partial must hold exactly one trial (replications %d + failures %d)",
			spec.Name, rep, r.Replications, r.Failures)
	}
	if h := r.MakespanHist; h == nil || h.Lo != 0 || h.Hi != float64(spec.Horizon) || len(h.Counts) != makespanBuckets {
		return fmt.Errorf("checkpoint scenario %q replication %d: histogram layout does not match the scenario's horizon %d",
			spec.Name, rep, spec.Horizon)
	}
	// Attack presence must track the spec: a partial with an aggregate
	// for an unattacked scenario (or vice versa) could not have come
	// from this campaign's trials, and would also poison every later
	// Merge in the reduction.
	if (spec.Attack != nil) != (r.Attack != nil) {
		return fmt.Errorf("checkpoint scenario %q replication %d: attack aggregate presence does not match the scenario spec",
			spec.Name, rep)
	}
	if r.Attack != nil && r.Attack.Trials != r.Replications {
		return fmt.Errorf("checkpoint scenario %q replication %d: attack aggregate holds %d trials, partial holds %d",
			spec.Name, rep, r.Attack.Trials, r.Replications)
	}
	return nil
}

// WriteFileAtomic is the temp+rename discipline every persisted
// artifact goes through (journal creation here, result and failure
// JSON in cmd/fleetrun, campaign inputs under fleetd): the bytes are written
// to a temp file in the target's directory, synced, renamed over the
// destination, and the directory itself is then fsynced — so an
// interrupted writer leaves either the old contents or the new,
// never a truncated file a resume or a cmp gate could misread, and a
// machine crash right after the rename cannot resurrect the old
// directory entry (the rename is durable only once its directory
// metadata is). On any failure the temp file is removed: a partial
// artifact is never visible under the target path or left littering
// its directory.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, werr := f.Write(data)
	if serr := f.Sync(); werr == nil {
		werr = serr
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Chmod(tmp, 0o644)
	}
	if werr == nil {
		werr = os.Rename(tmp, path)
	}
	if werr != nil {
		os.Remove(tmp)
		return werr
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making a just-renamed entry durable.
// Errors are reported, not swallowed: the caller's artifact exists
// but its durability is unknown.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}

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
	"math/bits"
	"os"
	"path/filepath"
)

// CheckpointFormat versions the journal layout; LoadCheckpoint and
// ValidateAgainst reject checkpoints written by a different format.
const CheckpointFormat = 2

// Checkpoint is the resumable state of a partially-executed campaign:
// identity (campaign name + canonical-encoding hash + master seed)
// plus, per scenario, a completed-replication bitmap and the
// completed trials' serialized aggregates.
type Checkpoint struct {
	Format       int                  `json:"format"`
	Campaign     string               `json:"campaign"`
	CampaignHash uint64               `json:"campaign_hash"`
	Seed         uint64               `json:"seed"`
	Completed    int                  `json:"completed_trials"`
	Scenarios    []ScenarioCheckpoint `json:"scenarios"`
}

// ScenarioCheckpoint is one scenario's recovery state. Done and
// Partials are redundant by construction (one partial per set bit);
// ValidateAgainst cross-checks them so a hand-edited or corrupted
// journal fails loudly instead of silently skewing the resume.
type ScenarioCheckpoint struct {
	Name         string         `json:"name"`
	Replications int            `json:"replications"`
	Done         Bitmap         `json:"done"`
	Partials     []TrialPartial `json:"partials"`
}

// TrialPartial is one completed trial's aggregate. Result holds
// exactly one trial: Replications 1 for a success, Failures 1 for a
// trial that exhausted its panic-retry budget and degraded.
type TrialPartial struct {
	Replication int            `json:"replication"`
	Result      ScenarioResult `json:"result"`
}

// Bitmap is a fixed-capacity bitset serialized as its uint64 words
// (Go's encoding/json round-trips uint64 exactly). Bit i of word
// i/64 marks replication i complete.
type Bitmap []uint64

// NewBitmap returns a bitmap with capacity for n bits, all clear.
func NewBitmap(n int) Bitmap { return make(Bitmap, (n+63)/64) }

// Get reports whether bit i is set.
func (b Bitmap) Get(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

// Set sets bit i.
func (b Bitmap) Set(i int) { b[i>>6] |= 1 << uint(i&63) }

// Count returns the number of set bits.
func (b Bitmap) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns an independent copy.
func (b Bitmap) Clone() Bitmap { return append(Bitmap(nil), b...) }

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

// buildCheckpoint assembles the checkpoint from the executor's state:
// the global completed bitmap laid out scenario-major, sliced into
// per-scenario bitmaps, with each completed trial's partial embedded
// in replication order.
func buildCheckpoint(c Campaign, hash, seed uint64, partials []*ScenarioResult, completed Bitmap) *Checkpoint {
	ck := &Checkpoint{Format: CheckpointFormat, Campaign: c.Name, CampaignHash: hash, Seed: seed}
	base := 0
	for _, s := range c.Scenarios {
		sc := ScenarioCheckpoint{Name: s.Name, Replications: s.Replications, Done: NewBitmap(s.Replications)}
		for rep := 0; rep < s.Replications; rep++ {
			if !completed.Get(base + rep) {
				continue
			}
			sc.Done.Set(rep)
			sc.Partials = append(sc.Partials, TrialPartial{Replication: rep, Result: *partials[base+rep]})
			ck.Completed++
		}
		ck.Scenarios = append(ck.Scenarios, sc)
		base += s.Replications
	}
	return ck
}

// MergeCheckpoints folds checkpoints into the campaign's result: the
// one reduction every run ends in — Run over its own final checkpoint,
// a resumed run over a checkpoint carrying restored partials, fleetd
// over its shards' journals. Every checkpoint is validated against the
// (campaign, seed) identity first, exactly like a resume. Per
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
// Partials may be in any order within a scenario. The
// partials fold in replication order into a deep copy of the first, so
// the inputs are never mutated: one checkpoint set can be merged more
// than once, and restored partials may alias a caller's ResumeFrom.
func MergeScenario(c Campaign, cks []*Checkpoint, si int, degrade bool) (*ScenarioResult, error) {
	partials, err := collectPartials(c, cks, si)
	if err != nil {
		return nil, err
	}
	spec := &c.Scenarios[si]
	var agg *ScenarioResult
	for rep, p := range partials {
		if p == nil {
			if !degrade {
				return nil, fmt.Errorf("fleet: scenario %q replication %d missing from every checkpoint", spec.Name, rep)
			}
			p = DegradedTrialResult(spec)
		}
		if agg == nil {
			agg = clonePartial(p)
			continue
		}
		if err := agg.Merge(p); err != nil {
			return nil, err
		}
	}
	return agg, nil
}

// collectPartials gathers scenario si's single-trial partials from
// every checkpoint, indexed by replication (nil = missing).
func collectPartials(c Campaign, cks []*Checkpoint, si int) ([]*ScenarioResult, error) {
	out := make([]*ScenarioResult, c.Scenarios[si].Replications)
	for _, ck := range cks {
		if ck == nil {
			continue
		}
		sc := &ck.Scenarios[si]
		for pi := range sc.Partials {
			p := &sc.Partials[pi]
			if out[p.Replication] != nil {
				return nil, fmt.Errorf("fleet: scenario %q replication %d appears in more than one checkpoint (mixed shard plans?)",
					c.Scenarios[si].Name, p.Replication)
			}
			out[p.Replication] = &p.Result
		}
	}
	return out, nil
}

// clonePartial deep-copies a partial (the histogram's bucket slice and
// the attack aggregate's maps are the reference fields) so the merge
// target never aliases checkpoint-owned storage.
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
// format) and internal inconsistencies (bitmap/partial disagreement,
// out-of-range or out-of-order replications, aggregates whose shape
// could not have come from this campaign's trials).
func (ck *Checkpoint) ValidateAgainst(c Campaign, seed uint64) error {
	if ck.Format != CheckpointFormat {
		return fmt.Errorf("fleet: checkpoint format %d; this build reads format %d", ck.Format, CheckpointFormat)
	}
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
	total := 0
	for i := range ck.Scenarios {
		sc := &ck.Scenarios[i]
		spec := &c.Scenarios[i]
		if sc.Name != spec.Name {
			return fmt.Errorf("fleet: checkpoint scenario %d is %q, campaign has %q", i, sc.Name, spec.Name)
		}
		if sc.Replications != spec.Replications {
			return fmt.Errorf("fleet: checkpoint scenario %q has %d replications, campaign has %d", sc.Name, sc.Replications, spec.Replications)
		}
		if len(sc.Done) != len(NewBitmap(spec.Replications)) {
			return fmt.Errorf("fleet: checkpoint scenario %q: bitmap has %d words, %d replications need %d",
				sc.Name, len(sc.Done), spec.Replications, len(NewBitmap(spec.Replications)))
		}
		for rep := spec.Replications; rep < len(sc.Done)*64; rep++ {
			if sc.Done.Get(rep) {
				return fmt.Errorf("fleet: checkpoint scenario %q: completed replication %d outside [0, %d)", sc.Name, rep, spec.Replications)
			}
		}
		if n := sc.Done.Count(); n != len(sc.Partials) {
			return fmt.Errorf("fleet: checkpoint scenario %q: bitmap marks %d trials done but %d partials are present", sc.Name, n, len(sc.Partials))
		}
		prev := -1
		for pi := range sc.Partials {
			p := &sc.Partials[pi]
			if err := validatePartial(spec, p); err != nil {
				return err
			}
			if p.Replication <= prev {
				return fmt.Errorf("fleet: checkpoint scenario %q: partials out of replication order (%d after %d)", sc.Name, p.Replication, prev)
			}
			prev = p.Replication
			if !sc.Done.Get(p.Replication) {
				return fmt.Errorf("fleet: checkpoint scenario %q: partial for replication %d not marked done", sc.Name, p.Replication)
			}
		}
		total += len(sc.Partials)
	}
	if ck.Completed != total {
		return fmt.Errorf("fleet: checkpoint claims %d completed trials but carries %d partials", ck.Completed, total)
	}
	return nil
}

// validatePartial rejects a partial that could not have come from one
// of spec's trials: a replication out of range, another scenario's
// result, more or less than one trial, a foreign histogram layout, or
// attack presence that disagrees with the spec.
func validatePartial(spec *Scenario, p *TrialPartial) error {
	if p.Replication < 0 || p.Replication >= spec.Replications {
		return fmt.Errorf("fleet: checkpoint scenario %q: partial for replication %d outside [0, %d)", spec.Name, p.Replication, spec.Replications)
	}
	r := &p.Result
	if r.Name != spec.Name {
		return fmt.Errorf("fleet: checkpoint scenario %q: partial carries result for %q", spec.Name, r.Name)
	}
	if r.Replications+r.Failures != 1 {
		return fmt.Errorf("fleet: checkpoint scenario %q replication %d: a partial must hold exactly one trial (replications %d + failures %d)",
			spec.Name, p.Replication, r.Replications, r.Failures)
	}
	if h := r.MakespanHist; h == nil || h.Lo != 0 || h.Hi != float64(spec.Horizon) || len(h.Counts) != makespanBuckets {
		return fmt.Errorf("fleet: checkpoint scenario %q replication %d: histogram layout does not match the scenario's horizon %d",
			spec.Name, p.Replication, spec.Horizon)
	}
	// Attack presence must track the spec: a partial with an aggregate
	// for an unattacked scenario (or vice versa) could not have come
	// from this campaign's trials, and would also poison every later
	// Merge in the reduction.
	if (spec.Attack != nil) != (r.Attack != nil) {
		return fmt.Errorf("fleet: checkpoint scenario %q replication %d: attack aggregate presence does not match the scenario spec",
			spec.Name, p.Replication)
	}
	if r.Attack != nil && r.Attack.Trials != r.Replications {
		return fmt.Errorf("fleet: checkpoint scenario %q replication %d: attack aggregate holds %d trials, partial holds %d",
			spec.Name, p.Replication, r.Attack.Trials, r.Replications)
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

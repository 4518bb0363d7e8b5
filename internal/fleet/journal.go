package fleet

// The checkpoint journal (CheckpointFormat 2): an append-only NDJSON
// file.
//
// Line 1 is the header: format, campaign name, campaign hash, seed,
// and each scenario's name and replication count. Every later line is
// one completed trial, {"scenario": index, "replication": r,
// "result": …}, encoded compactly. A run creates the journal once, with
// WriteFileAtomic (header plus any restored trials), and then appends
// each batch of completed trials with one write and one fsync. There
// is no rename and no directory fsync per batch, and a batch costs
// bytes proportional to its own trials, not to the whole checkpoint.
//
// A line counts only once its newline is on disk. A writer killed
// mid-append leaves at most one torn final line, which LoadCheckpoint
// drops: that trial is simply re-run on resume, under its unchanged
// stream seed. Any other defect is an error.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
)

// journalHeader is a journal's first line.
type journalHeader struct {
	Format       int               `json:"format"`
	Campaign     string            `json:"campaign"`
	CampaignHash uint64            `json:"campaign_hash"`
	Seed         uint64            `json:"seed"`
	Scenarios    []journalScenario `json:"scenarios"`
}

type journalScenario struct {
	Name         string `json:"name"`
	Replications int    `json:"replications"`
}

// journalTrial is one completed trial's line. Scenario indexes the
// header's scenario list.
type journalTrial struct {
	Scenario    int             `json:"scenario"`
	Replication int             `json:"replication"`
	Result      *ScenarioResult `json:"result"`
}

// maxJournalTrials bounds the replications a header may declare. The
// loader allocates a scenario's slots on its first trial line, so a
// header alone costs O(scenarios), and a journal under the cap costs at
// most 8 B × 2²⁴ = 128 MiB of slots, the table the executor itself
// holds for a campaign that size.
const maxJournalTrials = 1 << 24

// appendTrialLine encodes one completed trial's line onto buf.
func appendTrialLine(buf []byte, si, rep int, r *ScenarioResult) ([]byte, error) {
	data, err := json.Marshal(journalTrial{Scenario: si, Replication: rep, Result: r})
	if err != nil {
		return buf, err
	}
	return append(append(buf, data...), '\n'), nil
}

// journal encodes the checkpoint as a complete journal: the header,
// then every done trial in trial-index order.
func (ck *Checkpoint) journal() ([]byte, error) {
	h := journalHeader{Format: CheckpointFormat, Campaign: ck.Campaign, CampaignHash: ck.CampaignHash, Seed: ck.Seed}
	for _, sc := range ck.Scenarios {
		h.Scenarios = append(h.Scenarios, journalScenario{Name: sc.Name, Replications: sc.Replications})
	}
	buf, err := json.Marshal(h)
	if err != nil {
		return nil, err
	}
	buf = append(buf, '\n')
	for si, sc := range ck.Scenarios {
		for rep, r := range sc.Trials {
			if r == nil {
				continue
			}
			if buf, err = appendTrialLine(buf, si, rep, r); err != nil {
				return nil, err
			}
		}
	}
	return buf, nil
}

// Save writes the checkpoint as a complete journal, atomically (temp +
// rename).
func (ck *Checkpoint) Save(path string) error {
	data, err := ck.journal()
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, data)
}

// LoadCheckpoint reads a checkpoint journal into its trial table,
// ready for ValidateAgainst. A torn final line is dropped; any other
// defect, a replication that appears twice and an unknown field
// included, is an error.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ck, _, err := DecodeJournal(nil, data, nil, 0)
	if err == nil && ck == nil {
		err = errors.New("no complete header line")
	}
	if err != nil {
		return nil, fmt.Errorf("fleet: decoding checkpoint %s: %w", path, err)
	}
	return ck, nil
}

// DecodeJournal consumes the complete lines at the start of data into
// ck and returns the checkpoint and the number of bytes consumed. With
// a nil ck, data starts at the journal's first byte and the header line
// comes first; otherwise data starts where an earlier call stopped. A
// final line without its newline is left unconsumed: it is torn, or
// still being appended. When c is non-nil, the header must match
// (c, seed) and every trial line must be a partial of c's scenario, so
// the checkpoint is ready for MergeScenario after every call. On error
// the checkpoint is nil.
func DecodeJournal(ck *Checkpoint, data []byte, c *Campaign, seed uint64) (*Checkpoint, int, error) {
	off := 0
	for {
		line, _, ok := bytes.Cut(data[off:], []byte{'\n'})
		if !ok {
			return ck, off, nil
		}
		var err error
		if ck == nil {
			if ck, err = decodeHeader(line, data); err == nil && c != nil {
				err = ck.ValidateAgainst(*c, seed)
			}
		} else if err = ck.addLine(line, c); err != nil {
			// Each line before this one added one trial.
			err = fmt.Errorf("line %d: %w", ck.Completed()+2, err)
		}
		if err != nil {
			return nil, off, err
		}
		off += len(line) + 1
	}
}

func formatError(format int) error {
	if format == 1 {
		return errors.New("checkpoint format 1 is a whole-file sidecar from an older build; this build reads only format-2 journals (sidecars are transient: rerun the campaign instead of resuming)")
	}
	return fmt.Errorf("checkpoint format %d; this build reads format %d", format, CheckpointFormat)
}

// decodeHeader decodes a journal's first line, the start of data.
func decodeHeader(line, data []byte) (*Checkpoint, error) {
	var h journalHeader
	if err := decodeStrict(line, &h); err != nil {
		// A format-1 sidecar is one indented JSON object whose first
		// line is "{": name its format rather than fail on that line.
		var probe struct {
			Format int `json:"format"`
		}
		if json.NewDecoder(bytes.NewReader(data)).Decode(&probe) == nil && probe.Format != CheckpointFormat {
			return nil, formatError(probe.Format)
		}
		return nil, fmt.Errorf("header: %w", err)
	}
	if h.Format != CheckpointFormat {
		return nil, formatError(h.Format)
	}
	ck := &Checkpoint{Campaign: h.Campaign, CampaignHash: h.CampaignHash, Seed: h.Seed}
	total := 0
	for _, s := range h.Scenarios {
		if s.Replications < 0 || s.Replications > maxJournalTrials-total {
			return nil, fmt.Errorf("header: scenario %q declares %d replications (a journal holds at most %d trials)", s.Name, s.Replications, maxJournalTrials)
		}
		total += s.Replications
		ck.Scenarios = append(ck.Scenarios, ScenarioCheckpoint{Name: s.Name, Replications: s.Replications})
	}
	return ck, nil
}

// addLine decodes one complete trial line, checks it against the
// header and, when c is non-nil, against c's scenario, then fills its
// slot. A slot already filled is an error.
func (ck *Checkpoint) addLine(line []byte, c *Campaign) error {
	var t journalTrial
	if err := decodeStrict(line, &t); err != nil {
		return err
	}
	if t.Scenario < 0 || t.Scenario >= len(ck.Scenarios) {
		return fmt.Errorf("scenario index %d outside [0, %d)", t.Scenario, len(ck.Scenarios))
	}
	sc := &ck.Scenarios[t.Scenario]
	if t.Replication < 0 || t.Replication >= sc.Replications {
		return fmt.Errorf("scenario %q: replication %d outside [0, %d)", sc.Name, t.Replication, sc.Replications)
	}
	if t.Result == nil {
		return fmt.Errorf("scenario %q replication %d: no result", sc.Name, t.Replication)
	}
	if sc.Trials == nil {
		sc.Trials = make([]*ScenarioResult, sc.Replications)
	}
	if sc.Trials[t.Replication] != nil {
		return fmt.Errorf("scenario %q replication %d appears twice", sc.Name, t.Replication)
	}
	if c != nil {
		if err := validatePartial(&c.Scenarios[t.Scenario], t.Replication, t.Result); err != nil {
			return err
		}
	}
	sc.Trials[t.Replication] = t.Result
	return nil
}

// decodeStrict decodes exactly one JSON value, rejecting unknown fields
// and trailing data.
func decodeStrict(line []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// journalWriter is the append side of a run's checkpoint journal. Only
// execute's recording loop, on the goroutine that called Run or
// RunShard, touches it, so it needs no lock.
type journalWriter struct {
	path string
	f    *os.File // open for appends once the journal exists
	size int64    // durable length
	// pending holds the bytes not yet durable: until the journal exists,
	// its opening bytes (header and restored trials) and every line
	// since; afterwards, the lines since the last append.
	pending []byte
	encErr  error // a trial that could not be encoded fails every flush
	written *obs.Counter
}

// add buffers one completed trial's line.
func (j *journalWriter) add(si, rep int, r *ScenarioResult) {
	var err error
	if j.pending, err = appendTrialLine(j.pending, si, rep, r); err != nil && j.encErr == nil {
		j.encErr = err
	}
}

// flush makes the pending bytes durable. The first flush creates the
// journal atomically and opens it for appends; every later one is one
// write and one fsync. fault, when non-nil, is an injected failure:
// it fails a create before it starts, and takes an append's fsync's
// place. A failed append truncates the file back to its durable length
// and keeps the lines for the next flush; should the truncate fail
// too, the next append overwrites the same range, since it starts at
// the durable length and carries at least the same lines.
func (j *journalWriter) flush(fault error) error {
	if j.encErr != nil {
		return j.encErr
	}
	if j.f == nil {
		if fault != nil {
			return fault
		}
		if err := WriteFileAtomic(j.path, j.pending); err != nil {
			return err
		}
		j.written.Add(int64(len(j.pending)))
		f, err := os.OpenFile(j.path, os.O_WRONLY, 0)
		if err != nil {
			return err
		}
		j.f, j.size, j.pending = f, int64(len(j.pending)), j.pending[:0]
		return nil
	}
	if len(j.pending) == 0 {
		return fault
	}
	n, err := j.f.WriteAt(j.pending, j.size)
	j.written.Add(int64(n))
	if err == nil {
		err = fault
	}
	if err == nil {
		err = j.f.Sync()
	}
	if err != nil {
		_ = j.f.Truncate(j.size)
		return err
	}
	j.size += int64(n)
	j.pending = j.pending[:0]
	return nil
}

func (j *journalWriter) close() {
	if j.f != nil {
		j.f.Close()
	}
}

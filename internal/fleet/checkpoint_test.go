package fleet

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/obs"
)

// runJSON runs the campaign and returns its canonical bytes.
func runJSON(t *testing.T, c Campaign, opt Options) []byte {
	t.Helper()
	res, err := Run(c, opt)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// interruptedCheckpoint runs the campaign with a deterministic chaos
// kill after `after` dispatched trials, requires an InterruptedError,
// and returns the loaded final checkpoint.
func interruptedCheckpoint(t *testing.T, c Campaign, opt Options, after int) *Checkpoint {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ckpt.json")
	opt.CheckpointPath = path
	opt.CheckpointEvery = 1
	if opt.Faults == nil {
		opt.Faults = &FaultPlan{}
	}
	opt.Faults.KillAfterTrials = after
	_, err := Run(c, opt)
	var ie *InterruptedError
	if !errors.As(err, &ie) {
		t.Fatalf("want InterruptedError, got %v", err)
	}
	if ie.Checkpoint != path {
		t.Fatalf("InterruptedError names checkpoint %q, want %q", ie.Checkpoint, path)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Completed() != ie.Completed {
		t.Fatalf("checkpoint records %d completed trials, InterruptedError says %d", ck.Completed(), ie.Completed)
	}
	return ck
}

// cloneCheckpoint deep-copies ck through its journal: Save, then
// LoadCheckpoint.
func cloneCheckpoint(t *testing.T, ck *Checkpoint) *Checkpoint {
	t.Helper()
	path := filepath.Join(t.TempDir(), "clone.json")
	if err := ck.Save(path); err != nil {
		t.Fatal(err)
	}
	fresh, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	return fresh
}

// firstTrial returns the checkpoint's first done trial in trial-index
// order.
func firstTrial(t *testing.T, ck *Checkpoint) *ScenarioResult {
	t.Helper()
	for si, sc := range ck.Scenarios {
		for rep := range sc.Replications {
			if r := ck.Trial(si, rep); r != nil {
				return r
			}
		}
	}
	t.Fatal("checkpoint has no done trial")
	return nil
}

// The checkpoint's identity binding: the hash is stable for a fixed
// campaign and moves under any definitional edit.
func TestCampaignHashBindsDefinition(t *testing.T) {
	base := smokeCampaign()
	h1, err := CampaignHash(base)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := CampaignHash(smokeCampaign())
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("hash not a pure function of the campaign: %#x vs %#x", h1, h2)
	}
	for name, mutate := range map[string]func(*Campaign){
		"renamed scenario": func(c *Campaign) { c.Scenarios[0].Name = "smoke/renamed" },
		"changed horizon":  func(c *Campaign) { c.Scenarios[0].Horizon++ },
		"extra replication": func(c *Campaign) {
			c.Scenarios[1].Replications++
		},
		"reordered scenarios": func(c *Campaign) {
			c.Scenarios[0], c.Scenarios[1] = c.Scenarios[1], c.Scenarios[0]
		},
	} {
		c := smokeCampaign()
		mutate(&c)
		h, err := CampaignHash(c)
		if err != nil {
			t.Fatal(err)
		}
		if h == h1 {
			t.Errorf("%s: hash unchanged", name)
		}
	}
}

// The tentpole acceptance criterion: a campaign killed mid-run and
// resumed from its checkpoint produces byte-identical final JSON to a
// run that was never interrupted — for the smoke preset and the full
// e16 ablation preset, across worker counts. The kill is the
// deterministic chaos stand-in (KillAfterTrials), so the interruption
// point is identical on every test run.
func TestKillAndResumeByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name      string
		camp      Campaign
		killAfter int
		workers   int
	}{
		{"smoke", smokeCampaign(), 2, 2},
		{"e16", e16AblationDrainCampaign(), 7, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clean := runJSON(t, tc.camp, Options{Workers: tc.workers, Seed: 7})
			ck := interruptedCheckpoint(t, tc.camp, Options{Workers: tc.workers, Seed: 7}, tc.killAfter)
			if ck.Completed() != tc.killAfter {
				t.Fatalf("kill after %d dispatches completed %d trials", tc.killAfter, ck.Completed())
			}
			if ck.Completed() >= tc.camp.Trials() {
				t.Fatalf("nothing left to resume: %d of %d trials completed", ck.Completed(), tc.camp.Trials())
			}
			resumed := runJSON(t, tc.camp, Options{Workers: tc.workers, Seed: 7, ResumeFrom: ck})
			if !bytes.Equal(resumed, clean) {
				t.Fatalf("resumed bytes differ from the uninterrupted run:\n%s\nvs\n%s", resumed, clean)
			}
			// Resuming with a different worker count must not matter
			// either — the restored partials re-enter the reduction at
			// their own trial index.
			resumed1w := runJSON(t, tc.camp, Options{Workers: 1, Seed: 7, ResumeFrom: ck})
			if !bytes.Equal(resumed1w, clean) {
				t.Fatalf("single-worker resume bytes differ from the uninterrupted run")
			}
		})
	}
}

// Interruption chains: kill, resume, kill again, resume again — the
// final bytes must still equal the clean run's (each checkpoint
// subsumes the previous one's completed set).
func TestResumeChainByteIdentical(t *testing.T) {
	camp := smokeCampaign()
	clean := runJSON(t, camp, Options{Workers: 2, Seed: 7})
	ck1 := interruptedCheckpoint(t, camp, Options{Workers: 2, Seed: 7}, 1)
	ck2 := interruptedCheckpoint(t, camp, Options{Workers: 2, Seed: 7, ResumeFrom: ck1}, 2)
	if ck2.Completed() != ck1.Completed()+2 {
		t.Fatalf("second leg completed %d trials, want %d", ck2.Completed(), ck1.Completed()+2)
	}
	final := runJSON(t, camp, Options{Workers: 2, Seed: 7, ResumeFrom: ck2})
	if !bytes.Equal(final, clean) {
		t.Fatalf("twice-resumed bytes differ from the uninterrupted run")
	}
}

// A run that completes normally with checkpointing enabled leaves a
// complete sidecar; resuming from it re-runs nothing and still
// renders identical bytes (the restored-aggregate merge path alone).
func TestResumeFromCompleteCheckpoint(t *testing.T) {
	camp := smokeCampaign()
	path := filepath.Join(t.TempDir(), "ckpt.json")
	clean := runJSON(t, camp, Options{Workers: 2, Seed: 7, CheckpointPath: path})
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Completed() != camp.Trials() {
		t.Fatalf("final checkpoint records %d trials, want all %d", ck.Completed(), camp.Trials())
	}
	resumed := runJSON(t, camp, Options{Workers: 2, Seed: 7, ResumeFrom: ck})
	if !bytes.Equal(resumed, clean) {
		t.Fatalf("resume-from-complete bytes differ from the original run")
	}
}

// Every way a checkpoint can fail to match the campaign must be
// rejected with a contextual error — resuming under a mismatched
// seed or definition would silently corrupt the statistics.
func TestResumeValidationRejects(t *testing.T) {
	camp := smokeCampaign()
	ck := interruptedCheckpoint(t, camp, Options{Workers: 2, Seed: 7}, 2)

	reload := func(mutate func(*Checkpoint)) *Checkpoint {
		fresh := cloneCheckpoint(t, ck)
		mutate(fresh)
		return fresh
	}

	for name, tc := range map[string]struct {
		opt  Options
		ck   *Checkpoint
		want string
	}{
		"seed mismatch":     {Options{Seed: 8}, reload(func(*Checkpoint) {}), "seed"},
		"campaign renamed":  {Options{Seed: 7}, reload(func(c *Checkpoint) { c.Campaign = "other" }), "campaign"},
		"hash mismatch":     {Options{Seed: 7}, reload(func(c *Checkpoint) { c.CampaignHash++ }), "hash"},
		"wrong result name": {Options{Seed: 7}, reload(func(c *Checkpoint) { firstTrial(t, c).Name = "bogus" }), "carries result"},
		"histogram layout":  {Options{Seed: 7}, reload(func(c *Checkpoint) { firstTrial(t, c).MakespanHist.Hi++ }), "histogram"},
	} {
		opt := tc.opt
		opt.ResumeFrom = tc.ck
		opt.Workers = 2
		if _, err := Run(camp, opt); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error containing %q, got %v", name, tc.want, err)
		}
	}

	// A definitional edit to the campaign itself must likewise reject
	// an old checkpoint via the hash.
	edited := smokeCampaign()
	edited.Scenarios[0].Horizon++
	if _, err := Run(edited, Options{Workers: 2, Seed: 7, ResumeFrom: ck}); err == nil || !strings.Contains(err.Error(), "hash") {
		t.Errorf("edited campaign accepted a stale checkpoint: %v", err)
	}
}

// Save writes a complete format-2 journal atomically: saving over an
// existing journal leaves no temp droppings, the destination is a
// header line plus one line per trial, and it loads back to the same
// checkpoint.
func TestCheckpointSaveAtomicOverwrite(t *testing.T) {
	camp := smokeCampaign()
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.json")
	ck := interruptedCheckpoint(t, camp, Options{Workers: 2, Seed: 7}, 2)
	for i := 0; i < 3; i++ {
		if err := ck.Save(path); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "ckpt.json" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory holds %v, want exactly [ckpt.json] (temp files must not leak)", names)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte(`{"format":2,`)) || bytes.Count(data, []byte("\n")) != 1+ck.Completed() {
		t.Fatalf("Save wrote no format-2 journal with one line per trial:\n%s", data)
	}
	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, ck) {
		t.Fatalf("journal round trip changed the checkpoint:\n%+v\nvs\n%+v", loaded, ck)
	}
}

// WriteFileAtomic's failure contract: when the write cannot complete
// — here, the rename fails because the target is a directory — the
// temp file is removed, the error surfaces, and whatever previously
// lived at adjacent paths is untouched. A partial artifact must never
// be visible NOR left littering the directory for the next ReadDir
// (CI's cmp gates glob these directories).
func TestWriteFileAtomicFailurePaths(t *testing.T) {
	t.Run("rename blocked by directory", func(t *testing.T) {
		dir := t.TempDir()
		target := filepath.Join(dir, "artifact.json")
		if err := os.Mkdir(target, 0o755); err != nil {
			t.Fatal(err)
		}
		err := WriteFileAtomic(target, []byte("data"))
		if err == nil {
			t.Fatal("rename over a directory succeeded")
		}
		entries, rerr := os.ReadDir(dir)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if len(entries) != 1 || entries[0].Name() != "artifact.json" || !entries[0].IsDir() {
			names := make([]string, len(entries))
			for i, e := range entries {
				names[i] = e.Name()
			}
			t.Fatalf("failed write left droppings: %v", names)
		}
	})
	t.Run("missing parent directory", func(t *testing.T) {
		err := WriteFileAtomic(filepath.Join(t.TempDir(), "nope", "artifact.json"), []byte("data"))
		if err == nil {
			t.Fatal("write into a missing directory succeeded")
		}
	})
	t.Run("overwrite preserves old contents on failure", func(t *testing.T) {
		// Sanity for the success path first, then verify a failed
		// sibling write cannot corrupt an existing artifact.
		dir := t.TempDir()
		path := filepath.Join(dir, "artifact.json")
		if err := WriteFileAtomic(path, []byte("v1")); err != nil {
			t.Fatal(err)
		}
		blocked := filepath.Join(dir, "blocked.json")
		if err := os.Mkdir(blocked, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := WriteFileAtomic(blocked, []byte("v2")); err == nil {
			t.Fatal("expected failure")
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != "v1" {
			t.Fatalf("existing artifact perturbed: %q, %v", got, err)
		}
	})
}

// The -failures artifact: stable fields only, never null, stacks
// excluded, round-trips through the strict decoder.
func TestFailuresArtifactRoundTrip(t *testing.T) {
	fails := []TrialFailure{
		{Scenario: "s", Replication: 2, Attempt: 1, Panic: "boom", Stack: "goroutine 7 [running]"},
		{Scenario: "s", Replication: 2, Attempt: 2, Terminal: true, Panic: "boom"},
	}
	data, err := EncodeFailures("camp", 7, fails)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "goroutine") {
		t.Fatal("stack trace leaked into the failures artifact")
	}
	art, err := DecodeFailures(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if art.Campaign != "camp" || art.Seed != 7 || len(art.Failures) != 2 {
		t.Fatalf("round trip mangled the artifact: %+v", art)
	}
	if got := art.Failures[1]; got.Attempt != 2 || !got.Terminal || got.Stack != "" {
		t.Fatalf("failure fields mangled: %+v", got)
	}

	// A clean run encodes an empty array, not null.
	data, err = EncodeFailures("camp", 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"failures": []`) {
		t.Fatalf("clean ledger should encode []: %s", data)
	}
	if _, err := DecodeFailures(strings.NewReader(`{"campaign":"c","sed":1}`)); err == nil || !strings.Contains(err.Error(), "sed") {
		t.Errorf("typo field accepted: %v", err)
	}
}

// LoadCheckpoint must reject unknown fields like campaign files do, in
// the header and in a trial line alike.
func TestLoadCheckpointRejectsUnknownFields(t *testing.T) {
	journal := smokeJournal(t)
	header, trials, _ := bytes.Cut(journal, []byte("\n"))
	for name, data := range map[string][]byte{
		"header": append([]byte(`{"format":2,"campain":"x"}`+"\n"), trials...),
		"trial":  append(append(header, '\n'), bytes.Replace(trials, []byte(`"replication"`), []byte(`"campain":1,"replication"`), 1)...),
	} {
		path := filepath.Join(t.TempDir(), "ck.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(path); err == nil || !strings.Contains(err.Error(), "campain") {
			t.Errorf("%s: typo field accepted: %v", name, err)
		}
	}
}

// smokeJournal runs the smoke campaign on one worker with an append
// after every trial and returns its journal: a header and six trial
// lines, written by the append path rather than by Save.
func smokeJournal(t testing.TB) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ckpt.json")
	if _, err := Run(smokeCampaign(), Options{Workers: 1, Seed: 7, CheckpointPath: path, CheckpointEvery: 1}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// goldenJournal is the journal that
// `fleetrun -preset smoke -seed 7 -workers 1 -checkpoint PATH -every 1`
// writes; goldenTornJournal is the same file without its last 5 bytes,
// as a writer killed mid-append leaves it.
const (
	goldenJournal     = "testdata/smoke-seed7.journal"
	goldenTornJournal = "testdata/smoke-seed7-torn.journal"
)

// The journal format is pinned: the run writes the golden journal byte
// for byte, and the golden journal and its torn copy both resume to the
// uninterrupted run's bytes.
func TestJournalGolden(t *testing.T) {
	golden, err := os.ReadFile(goldenJournal)
	if err != nil {
		t.Fatal(err)
	}
	if got := smokeJournal(t); !bytes.Equal(got, golden) {
		t.Fatalf("the smoke run's journal differs from %s:\n%s\nvs\n%s", goldenJournal, got, golden)
	}
	camp := smokeCampaign()
	clean := runJSON(t, camp, Options{Workers: 1, Seed: 7})
	for path, trials := range map[string]int{goldenJournal: camp.Trials(), goldenTornJournal: camp.Trials() - 1} {
		ck, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		if ck.Completed() != trials {
			t.Fatalf("%s holds %d trials, want %d", path, ck.Completed(), trials)
		}
		if got := runJSON(t, camp, Options{Workers: 1, Seed: 7, ResumeFrom: ck}); !bytes.Equal(got, clean) {
			t.Fatalf("resume from %s differs from the uninterrupted run", path)
		}
	}
}

// loadJournal writes data to a fresh file and loads it.
func loadJournal(t *testing.T, data []byte) (*Checkpoint, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ckpt.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return LoadCheckpoint(path)
}

// A writer killed mid-append leaves a torn final line. Whatever byte
// the cut lands on inside the last line, the journal loads the trials
// before it, and resuming re-runs the torn trial to the clean bytes.
func TestJournalTornTail(t *testing.T) {
	camp := smokeCampaign()
	clean := runJSON(t, camp, Options{Workers: 2, Seed: 7})
	journal := smokeJournal(t)
	last := bytes.LastIndexByte(journal[:len(journal)-1], '\n') + 1
	want, err := loadJournal(t, journal[:last])
	if err != nil {
		t.Fatal(err)
	}
	if want.Completed() != camp.Trials()-1 {
		t.Fatalf("journal without its last line holds %d trials, want %d", want.Completed(), camp.Trials()-1)
	}
	for cut := last; cut < len(journal); cut++ {
		ck, err := loadJournal(t, journal[:cut])
		if err != nil {
			t.Fatalf("cut at byte %d: %v", cut, err)
		}
		if !reflect.DeepEqual(ck, want) {
			t.Fatalf("cut at byte %d loads %d trials, not the %d before the torn line", cut, ck.Completed(), want.Completed())
		}
	}
	// Every cut loads the same checkpoint, so one resume covers them all.
	if got := runJSON(t, camp, Options{Workers: 2, Seed: 7, ResumeFrom: want}); !bytes.Equal(got, clean) {
		t.Fatal("resume from a torn journal differs from the uninterrupted run")
	}
}

// Only the final line may be torn: a defect anywhere else is an error.
func TestJournalCorruptLineFails(t *testing.T) {
	journal := smokeJournal(t)
	second := bytes.IndexByte(journal, '\n') + 1
	for name, data := range map[string][]byte{
		"garbage line":   append(append(append([]byte{}, journal[:second]...), "not json\n"...), journal[second:]...),
		"empty line":     append(append(append([]byte{}, journal[:second]...), '\n'), journal[second:]...),
		"truncated line": append(append([]byte{}, journal[:second+10]...), journal[bytes.IndexByte(journal[second:], '\n')+second:]...),
		"no header":      journal[second:],
		"torn header":    journal[:second-1],
	} {
		if _, err := loadJournal(t, data); err == nil {
			t.Errorf("%s: corrupt journal loaded", name)
		}
	}
}

// A format-1 sidecar (one indented JSON object) is named, not resumed.
func TestLoadCheckpointRejectsFormat1(t *testing.T) {
	_, err := loadJournal(t, []byte(format1Sidecar))
	if err == nil || !strings.Contains(err.Error(), "format 1 is a whole-file sidecar") {
		t.Fatalf("format-1 sidecar: want the format-1 error, got %v", err)
	}
}

// A journal from any other format is rejected by its header, the only
// place the format lives.
func TestLoadCheckpointRejectsOtherFormat(t *testing.T) {
	journal := smokeJournal(t)
	other := bytes.Replace(journal, []byte(`{"format":2,`), []byte(`{"format":3,`), 1)
	if _, err := loadJournal(t, other); err == nil || !strings.Contains(err.Error(), "checkpoint format 3; this build reads format 2") {
		t.Fatalf("format-3 journal: want the format error, got %v", err)
	}
}

// A header's cost does not grow with the replications it declares: the
// slots of a scenario are allocated on its first trial line.
func TestJournalHeaderAllocationBounded(t *testing.T) {
	header := []byte(`{"format":2,"campaign":"huge","campaign_hash":1,"seed":7,"scenarios":[{"name":"huge/a","replications":16777216}]}`)
	line := append(header, '\n')
	path := filepath.Join(t.TempDir(), "ckpt.json")
	if err := os.WriteFile(path, line, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	loaded, lerr := LoadCheckpoint(path)
	decoded, _, derr := DecodeJournal(nil, line, nil, 0)
	runtime.ReadMemStats(&after)
	if lerr != nil || derr != nil {
		t.Fatalf("LoadCheckpoint: %v; DecodeJournal: %v", lerr, derr)
	}
	for _, ck := range []*Checkpoint{loaded, decoded} {
		if ck.Scenarios[0].Replications != maxJournalTrials || ck.Completed() != 0 {
			t.Fatalf("header decoded to %+v", ck.Scenarios)
		}
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<10 {
		t.Fatalf("decoding a %d-replication header allocated %d bytes, want < 64 KiB", maxJournalTrials, grew)
	}
}

// DecodeJournal consumes complete lines only, so a journal fed to it in
// pieces, as a reader following a growing file sees it, decodes to the
// checkpoint LoadCheckpoint reads from the whole file. Given the
// campaign, it rejects another seed's header, and a trial line whose
// result belongs to another scenario, naming that line; LoadCheckpoint
// checks neither.
func TestDecodeJournalIncremental(t *testing.T) {
	camp := smokeCampaign()
	journal := smokeJournal(t)
	want, err := loadJournal(t, journal)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []int{1, 7, 100, len(journal)} {
		var ck *Checkpoint
		off := 0
		for end := 0; end < len(journal); {
			end = min(end+step, len(journal))
			var used int
			if ck, used, err = DecodeJournal(ck, journal[off:end], &camp, 7); err != nil {
				t.Fatalf("%d-byte pieces: %v", step, err)
			}
			off += used
		}
		if off != len(journal) || !reflect.DeepEqual(ck, want) {
			t.Fatalf("%d-byte pieces: consumed %d of %d bytes into a different checkpoint", step, off, len(journal))
		}
	}
	if _, _, err := DecodeJournal(nil, journal, &camp, 8); err == nil || !strings.Contains(err.Error(), "seed 7 does not match master seed 8") {
		t.Fatalf("another seed's journal: want the seed error, got %v", err)
	}
	// Lines 1-3, the third moved to scenario 1: its result still names
	// scenario 0.
	var ends []int // ends[k] is the length of the header and k trial lines
	for i, b := range journal {
		if b == '\n' {
			ends = append(ends, i+1)
		}
	}
	moved := append(journal[:ends[1]:ends[1]], bytes.Replace(journal[ends[1]:ends[2]], []byte(`{"scenario":0,`), []byte(`{"scenario":1,`), 1)...)
	if _, err := loadJournal(t, moved); err != nil {
		t.Fatalf("LoadCheckpoint checks no campaign, yet: %v", err)
	}
	ck, used, err := DecodeJournal(nil, moved[:ends[1]], &camp, 7)
	if err != nil || used != ends[1] {
		t.Fatalf("lines 1-2: consumed %d of %d bytes: %v", used, ends[1], err)
	}
	if _, _, err := DecodeJournal(ck, moved[ends[1]:], &camp, 7); err == nil || !strings.Contains(err.Error(), "line 3: checkpoint scenario \"smoke/") {
		t.Fatalf("a line moved to another scenario: want a line-3 error, got %v", err)
	}
}

const format1Sidecar = `{
  "format": 1,
  "campaign": "smoke",
  "campaign_hash": 1,
  "seed": 7,
  "completed_trials": 0,
  "scenarios": []
}
`

// LoadCheckpoint rejects a duplicated trial line the moment it reads
// it: a replication may complete only once.
func TestJournalDuplicateLineFailsLoad(t *testing.T) {
	journal := smokeJournal(t)
	second := bytes.IndexByte(journal, '\n') + 1
	third := bytes.IndexByte(journal[second:], '\n') + second + 1
	dup := append(append([]byte{}, journal[:third]...), journal[second:]...)
	if _, err := loadJournal(t, dup); err == nil || !strings.Contains(err.Error(), "line 3: scenario \"smoke/enhanced\" replication 0 appears twice") {
		t.Fatalf("a duplicated replication line: want the appears-twice error, got %v", err)
	}
}

// A failed append is rolled back: the journal is truncated to its last
// good length, so it still loads, and the resume re-runs only the
// trials whose appends failed.
func TestJournalFailedAppendStillLoads(t *testing.T) {
	camp := smokeCampaign()
	clean := runJSON(t, camp, Options{Workers: 2, Seed: 7})
	path := filepath.Join(t.TempDir(), "ckpt.json")
	// Six trials, an append after each: writes 6 (periodic) and 7
	// (final) both try to append the sixth trial's line, and both fail.
	res, err := Run(camp, Options{Workers: 2, Seed: 7, CheckpointPath: path, CheckpointEvery: 1,
		Faults: &FaultPlan{CheckpointWrites: []int{6, 7}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckpointWriteFailures != 2 {
		t.Fatalf("CheckpointWriteFailures = %d, want 2", res.CheckpointWriteFailures)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("journal after failed appends: %v", err)
	}
	if err := ck.ValidateAgainst(camp, 7); err != nil {
		t.Fatal(err)
	}
	if ck.Completed() != camp.Trials()-1 {
		t.Fatalf("journal holds %d trials, want the %d appended before the failures", ck.Completed(), camp.Trials()-1)
	}
	if got := runJSON(t, camp, Options{Workers: 2, Seed: 7, ResumeFrom: ck}); !bytes.Equal(got, clean) {
		t.Fatal("resume after failed appends differs from the uninterrupted run")
	}
}

// Each journal byte is written once: after a clean shard run with an
// append after every trial, fleet_checkpoint_bytes_total is exactly
// the journal's size, and the write count is one per trial plus the
// final write.
func TestCheckpointBytesCounter(t *testing.T) {
	camp := smokeCampaign()
	path := filepath.Join(t.TempDir(), "shard.json")
	reg := obs.NewRegistry()
	sh := ShardRun{Index: 0, Count: 2, Ranges: []RepRange{{Lo: 0, Hi: 2}, {Lo: 0, Hi: 2}}}
	if _, _, err := RunShard(camp, Options{Workers: 2, Seed: 7, CheckpointPath: path, CheckpointEvery: 1, Metrics: reg}, sh); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := counterValue(snap, "fleet_checkpoint_bytes_total"); got != fi.Size() {
		t.Errorf("fleet_checkpoint_bytes_total = %d, journal is %d bytes", got, fi.Size())
	}
	trials := 0
	for _, r := range sh.Ranges {
		trials += r.Len()
	}
	if got, want := counterValue(snap, "fleet_checkpoint_writes_total"), int64(trials+1); got != want {
		t.Errorf("fleet_checkpoint_writes_total = %d, want %d", got, want)
	}
}

// FuzzLoadCheckpoint: no input makes LoadCheckpoint panic; whatever
// loads has one canonical journal (Save, LoadCheckpoint and Save again
// give the same bytes and the same trial count); and a checkpoint that
// passes ValidateAgainst merges without error.
func FuzzLoadCheckpoint(f *testing.F) {
	camp := smokeCampaign()
	journal := smokeJournal(f)
	f.Add(journal)
	for _, cut := range []int{1, 5, len(journal) / 2, len(journal) - 1} {
		f.Add(journal[:len(journal)-cut])
	}
	f.Add([]byte(format1Sidecar))
	golden, err := os.ReadFile(goldenJournal)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := loadJournal(t, data)
		if err != nil {
			return
		}
		if ck == nil {
			t.Fatal("LoadCheckpoint returned neither a checkpoint nor an error")
		}
		dir := t.TempDir()
		first, second := filepath.Join(dir, "first"), filepath.Join(dir, "second")
		if err := ck.Save(first); err != nil {
			t.Fatal(err)
		}
		again, err := LoadCheckpoint(first)
		if err != nil {
			t.Fatalf("a saved checkpoint does not load: %v", err)
		}
		if err := again.Save(second); err != nil {
			t.Fatal(err)
		}
		a, _ := os.ReadFile(first)
		b, _ := os.ReadFile(second)
		if !bytes.Equal(a, b) || again.Completed() != ck.Completed() {
			t.Fatalf("Save/LoadCheckpoint/Save is not canonical: %d vs %d trials\n%s\nvs\n%s", ck.Completed(), again.Completed(), a, b)
		}
		if ck.ValidateAgainst(camp, 7) != nil {
			return
		}
		if _, err := MergeCheckpoints(camp, 7, []*Checkpoint{ck}, true); err != nil {
			t.Fatalf("a validated checkpoint failed to merge: %v", err)
		}
	})
}

// An interrupted run with no checkpoint path still drains and
// reports, with the error explicit that completed work was dropped.
func TestInterruptWithoutCheckpointPath(t *testing.T) {
	camp := smokeCampaign()
	_, err := Run(camp, Options{Workers: 2, Seed: 7, Faults: &FaultPlan{KillAfterTrials: 2}})
	var ie *InterruptedError
	if !errors.As(err, &ie) {
		t.Fatalf("want InterruptedError, got %v", err)
	}
	if ie.Checkpoint != "" || !strings.Contains(ie.Error(), "discarded") {
		t.Errorf("error should state that completed trials were discarded: %v", ie)
	}
}

// Options.Interrupt already fired: the run must stop before
// dispatching anything, checkpoint an empty state, and that empty
// checkpoint must resume to a byte-identical full run.
func TestInterruptBeforeDispatch(t *testing.T) {
	camp := smokeCampaign()
	clean := runJSON(t, camp, Options{Workers: 2, Seed: 7})
	path := filepath.Join(t.TempDir(), "ckpt.json")
	pre := make(chan struct{})
	close(pre)
	_, err := Run(camp, Options{Workers: 2, Seed: 7, Interrupt: pre, CheckpointPath: path})
	var ie *InterruptedError
	if !errors.As(err, &ie) {
		t.Fatalf("want InterruptedError, got %v", err)
	}
	if ie.Completed != 0 {
		t.Fatalf("pre-fired interrupt completed %d trials, want 0", ie.Completed)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	resumed := runJSON(t, camp, Options{Workers: 2, Seed: 7, ResumeFrom: ck})
	if !bytes.Equal(resumed, clean) {
		t.Fatalf("resume-from-empty bytes differ from the clean run")
	}
}

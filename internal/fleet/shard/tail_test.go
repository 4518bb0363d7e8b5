package shard

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fleet"
)

// The journal tail consumes complete lines only, resumes from its
// offset, starts over when the file is replaced, and ignores a journal
// with a defect (a duplicated trial line included) until it is
// replaced.
func TestJournalTail(t *testing.T) {
	camp := fleet.MustPreset("smoke")
	dir := t.TempDir()
	src := filepath.Join(dir, "src.json")
	if _, err := fleet.Run(camp, fleet.Options{Workers: 1, Seed: 7, CheckpointPath: src, CheckpointEvery: 1}); err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	// ends[k] is the length of the header plus k trial lines.
	var ends []int
	for i, b := range journal {
		if b == '\n' {
			ends = append(ends, i+1)
		}
	}
	s := &supervisor{c: camp, opt: Options{Seed: 7, Dir: dir, Logf: t.Logf}, shards: make([]shardState, 1)}
	path, tail := s.journalPath(0), &s.shards[0].tail
	if s.readJournal(0) {
		t.Fatal("a missing journal grew")
	}
	step := func(name string, data []byte, grows bool, completed int) {
		t.Helper()
		if err := fleet.WriteFileAtomic(path, data); err != nil {
			t.Fatal(err)
		}
		if got := s.readJournal(0); got != grows {
			t.Fatalf("%s: read grew %v, want %v", name, got, grows)
		}
		if got := tail.ck; completed < 0 && got != nil || completed >= 0 && (got == nil || got.Completed() != completed) {
			t.Fatalf("%s: tail holds %+v, want %d trials", name, got, completed)
		}
	}
	step("header and two trials, third torn", journal[:ends[2]+10], true, 2)
	off := tail.off
	// Appending in place keeps the file's identity: the tail reads on
	// from its offset.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(journal[ends[2]+10 : ends[4]]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if !s.readJournal(0) || tail.ck.Completed() != 4 || tail.off != int64(ends[4]) || off != int64(ends[2]) {
		t.Fatalf("append in place: tail at offset %d with %d trials, want %d and 4", tail.off, tail.ck.Completed(), ends[4])
	}
	if s.readJournal(0) {
		t.Fatal("an unchanged journal grew")
	}
	// A file shorter than what was consumed is read again from byte 0.
	if err := os.Truncate(path, int64(ends[2])); err != nil {
		t.Fatal(err)
	}
	if !s.readJournal(0) || tail.ck.Completed() != 2 {
		t.Fatalf("shrunk in place: tail holds %d trials, want 2", tail.ck.Completed())
	}
	step("replaced by a new attempt's journal", journal[:ends[1]], true, 1)
	bad := append(append([]byte{}, journal[:ends[1]]...), "not json\n"...)
	step("a defect", append(bad, journal[ends[1]:ends[3]]...), false, -1)
	dup := append(append([]byte{}, journal[:ends[2]]...), journal[ends[1]:ends[2]]...)
	step("a duplicated trial line", dup, false, -1)
	if !tail.bad {
		t.Fatal("a duplicated trial line did not mark the journal bad")
	}
	step("replaced again", journal, true, camp.Trials())
	if tail.off != int64(len(journal)) {
		t.Fatalf("tail consumed %d of the journal's %d bytes", tail.off, len(journal))
	}
}

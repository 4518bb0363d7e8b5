package shard

import (
	"os"

	"repro/internal/fleet"
)

// journalTail is the supervisor's one reader of a shard's checkpoint
// journal. It resumes from the byte offset it last consumed, so a read
// costs only what the shard appended since, and it consumes complete
// lines only: a batch caught mid-append is picked up whole by a later
// read. When a new attempt has replaced the file — a different inode,
// or a file shorter than what was consumed — it starts a fresh
// checkpoint from byte 0. Every line is validated against the campaign
// as it is consumed, so ck is always ready for fleet.MergeScenario.
type journalTail struct {
	fi  os.FileInfo       // the file being followed; nil before the first read
	off int64             // bytes consumed, complete lines only
	ck  *fleet.Checkpoint // nil until a valid header is consumed
	bad bool              // a defect was found: ignore the file until it is replaced
}

// readJournal consumes the complete lines shard i's journal gained
// since the last call and reports whether there were any: the
// journal's growth is the shard's liveness.
func (s *supervisor) readJournal(i int) bool {
	t := &s.shards[i].tail
	f, err := os.Open(s.journalPath(i))
	if err != nil {
		return false // not created yet
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return false
	}
	if t.fi == nil || !os.SameFile(t.fi, fi) || fi.Size() < t.off {
		*t = journalTail{fi: fi}
	}
	if t.bad || fi.Size() <= t.off {
		return false
	}
	buf := make([]byte, fi.Size()-t.off)
	n, _ := f.ReadAt(buf, t.off) // a short read leaves the rest for the next call
	ck, used, err := fleet.DecodeJournal(t.ck, buf[:n], &s.c, s.opt.Seed)
	if err != nil {
		s.opt.Logf("shard %d: ignoring invalid journal: %v", i, err)
		*t = journalTail{fi: fi, bad: true}
		return false
	}
	t.ck, t.off = ck, t.off+int64(used)
	if used == 0 {
		return false
	}
	s.opt.Status.set(i, func(st *ShardStatus) { st.Completed = ck.Completed() })
	return true
}

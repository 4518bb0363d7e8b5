package simos

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ids"
)

// tableModel is the reference model FuzzTableOps holds a node's
// process table to: a plain map of entry values, a PID counter and the
// pristine mark, with every operation written the obvious way.
type tableModel struct {
	procs       map[ids.PID]Process
	nextPID     ids.PID
	marked      bool
	pristine    map[ids.PID]Process
	pristinePID ids.PID
	pristineGen uint64 // the table's generation at the mark
}

func newTableModel() *tableModel {
	return &tableModel{procs: make(map[ids.PID]Process), nextPID: 1}
}

func (m *tableModel) spawn(p Process) ids.PID {
	p.PID = m.nextPID
	m.nextPID++
	m.procs[p.PID] = p
	return p.PID
}

// modelBase are the daemons a node starts with and respawns on Restore.
var modelBase = [][]string{{"systemd"}, {"sshd"}, {"slurmd", "-D"}}

func (m *tableModel) daemon(cmdline ...string) {
	m.spawn(Process{PPID: 1, Cred: daemonCred, Comm: cmdline[0], Cmdline: cmdline, State: StateSleeping, Daemon: true})
}

// remove deletes live pid if ok accepts it, reporting whether it did.
func (m *tableModel) remove(pid ids.PID, ok func(Process) bool) bool {
	p, live := m.procs[pid]
	if !live || !ok(p) {
		return false
	}
	delete(m.procs, pid)
	return true
}

// crash removes every process, as a node crash does.
func (m *tableModel) crash() int {
	n := len(m.procs)
	clear(m.procs)
	return n
}

func (m *tableModel) mark(gen uint64) {
	m.marked = true
	m.pristine = maps.Clone(m.procs)
	m.pristinePID = m.nextPID
	m.pristineGen = gen
}

func (m *tableModel) reset() {
	m.procs = maps.Clone(m.pristine)
	if m.procs == nil {
		m.procs = make(map[ids.PID]Process)
	}
	m.nextPID = m.pristinePID
	if !m.marked {
		m.nextPID = 1
	}
}

// check compares the table with the model: the snapshot's order and
// fields, Lookup of every PID up to one past the last handed out, and
// Len.
func (m *tableModel) check(t *testing.T, tb *Table, step int) {
	t.Helper()
	all := tb.snapshot()
	want := slices.Sorted(maps.Keys(m.procs))
	if len(all) != len(want) {
		t.Fatalf("step %d: the snapshot has %d processes, model %d", step, len(all), len(want))
	}
	for i, pid := range want {
		if got := deepCopy(all[i]); !reflect.DeepEqual(got, m.procs[pid]) {
			t.Fatalf("step %d: snapshot[%d] = %+v, model %+v", step, i, got, m.procs[pid])
		}
	}
	for pid := ids.PID(0); pid <= m.nextPID; pid++ {
		mp, live := m.procs[pid]
		p, ok := tb.Lookup(pid)
		if ok != live || ok && !reflect.DeepEqual(deepCopy(p), mp) {
			t.Fatalf("step %d: Lookup(%d) = %v, %v; model live %v", step, pid, p, ok, live)
		}
	}
	if tb.Len() != len(want) {
		t.Fatalf("step %d: Len = %d, model %d", step, tb.Len(), len(want))
	}
}

// tableOpsSeed encodes a workload that fills a table, exits most of
// it and refills it, so the seed corpus reaches the compaction path.
func tableOpsSeed(bare byte) []byte {
	data := []byte{bare}
	for i := 0; i < 40; i++ {
		data = append(data, 1, byte(i), byte(i)) // SpawnJob
		if i%4 != 3 {
			data = append(data, 3, byte(i+4), byte(i+1)) // ExitJob of an earlier task
		}
	}
	return data
}

// FuzzTableOps decodes bytes into a sequence of process-table
// operations — Spawn, SpawnJob, a daemon spawn, ExitJob, a node Crash
// and Restore, MarkPristine and Reset — on a
// node built by NewNode or, when the first byte is odd, on an unmarked
// empty table. After every operation the table must equal the
// reference model, its generation must have moved exactly when the
// operation mutated the table, and Reset must bring back the mark's
// generation.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 1, 7, 1, 3, 3, 7, 6, 0, 0, 7, 0, 0})
	f.Add([]byte{1, 0, 4, 0, 2, 1, 1, 6, 0, 0, 5, 0, 0, 1, 3, 3, 7, 0, 0})
	f.Add([]byte{0, 4, 0, 0, 5, 0, 0, 1, 5, 5, 4, 0, 0, 5, 0, 0, 7, 0, 0, 4, 0, 0})
	f.Add(tableOpsSeed(0))
	f.Add(tableOpsSeed(1))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		m := newTableModel()
		var n *Node
		if data[0]%2 == 0 {
			n = NewNode("c0", Compute, 4, 1<<30, nil)
			for _, c := range modelBase {
				m.daemon(c...)
			}
			m.mark(n.Procs.gen)
		} else {
			n = &Node{Name: "c0", Procs: NewTable(nil)}
		}
		tb := n.Procs
		m.check(t, tb, 0)
		ops := data[1:]
		if len(ops) > 3*300 {
			ops = ops[:3*300]
		}
		argvs := [][]string{nil, {"--secret"}, {"-x", "y"}, {"a", "b", "c"}}
		for k := 0; k+3 <= len(ops); k += 3 {
			op, a, b := ops[k]%8, int(ops[k+1]), int(ops[k+2])
			pid := ids.PID(a % (int(m.nextPID) + 1))
			uid := ids.UID(1000 + b%3)
			comm, argv := []string{"a.out", "bash", "python"}[a%3], argvs[b%4]
			gen := tb.gen
			mutated := true
			switch op {
			case 0:
				c := testCred(uid)
				got := tb.Spawn(c, ids.PID(b%4), comm, argv...)
				want := m.spawn(Process{PPID: ids.PID(b % 4), Cred: c, Comm: comm,
					Cmdline: append([]string{comm}, argv...), State: StateRunning})
				if got.PID != want {
					t.Fatalf("op %d: Spawn got PID %d, model %d", k/3, got.PID, want)
				}
			case 1:
				c := testCred(uid)
				got := tb.SpawnJob(c, 1+a, int64(b)<<20, comm, argv...)
				want := m.spawn(Process{PPID: 1, Cred: c, Comm: comm, Cmdline: append([]string{comm}, argv...),
					State: StateRunning, RSS: int64(b) << 20, JobID: 1 + a})
				if got != want {
					t.Fatalf("op %d: SpawnJob got PID %d, model %d", k/3, got, want)
				}
			case 2:
				tb.spawnDaemon(append([]string{comm}, argv...))
				m.daemon(append([]string{comm}, argv...)...)
			case 3:
				jobID := b - 1 // -1 and 0 never match a task; b-1 >= 1 may
				got := tb.ExitJob(pid, jobID)
				mutated = m.remove(pid, func(p Process) bool { return jobID != 0 && p.JobID == jobID })
				if got != mutated {
					t.Fatalf("op %d: ExitJob(%d, %d) = %v, model %v", k/3, pid, jobID, got, mutated)
				}
			case 4:
				got := n.Crash()
				want := m.crash()
				if got != want || !n.Down() {
					t.Fatalf("op %d: Crash = %d (down %v), model %d", k/3, got, n.Down(), want)
				}
				mutated = want > 0
			case 5:
				n.Restore()
				for _, c := range modelBase {
					m.daemon(c...)
				}
			case 6:
				tb.MarkPristine()
				m.mark(gen)
				mutated = false
			case 7:
				n.Reset()
				m.reset()
				if got := tb.gen; got != m.pristineGen {
					t.Fatalf("op %d: generation %d after Reset, want the mark's %d", k/3, got, m.pristineGen)
				}
				m.check(t, tb, k/3)
				continue
			}
			if moved := tb.gen != gen; moved != mutated {
				t.Fatalf("op %d (%d): generation moved %v, model mutated %v", k/3, op, moved, mutated)
			}
			m.check(t, tb, k/3)
		}
	})
}

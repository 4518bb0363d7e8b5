package sched

import (
	"testing"

	"repro/internal/ids"
)

// FuzzSchedOps decodes bytes into a sequence of scheduler operations —
// submit, cancel, step, a short RunAll (whose fast-forward skips ticks
// only behind a closed queue gate), and a node crash (with the Step
// that notices it) or restore — on a 3-node, 4-core, 2-GPU cluster
// under the policy the first byte picks. After every operation the
// incremental aggregates, the live indexes and the node process tables
// must match a recomputation from scratch, and a closed queue gate
// must hold no job that fits.
func FuzzSchedOps(f *testing.F) {
	f.Add([]byte{0, 0, 5, 1, 1, 9, 2, 3, 0, 0, 3, 0, 0})
	f.Add([]byte{1, 0, 44, 6, 0, 1, 3, 3, 0, 0, 4, 1, 0, 3, 0, 0, 5, 1, 0, 3, 0, 0})
	f.Add([]byte{2, 0, 8, 0, 0, 9, 1, 0, 13, 2, 3, 0, 0, 2, 2, 1, 3, 0, 0, 3, 0, 0})
	f.Add([]byte{0, 0, 0, 255, 1, 4, 16, 0, 1, 0, 3, 0, 0, 3, 0, 0, 4, 2, 0, 5, 2, 0, 3, 0, 0})
	f.Add([]byte{1, 0, 7, 3, 1, 2, 1, 0, 1, 2, 6, 0, 3, 2, 1, 0, 6, 0, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		pol := []SharingPolicy{PolicyShared, PolicyExclusive, PolicyUserWholeNode}[int(data[0])%3]
		nodes := computeNodes(3, 4, 1<<20)
		s := New(Config{Policy: pol}, nodes, 2)
		submitted := 0
		ops := data[1:]
		if len(ops) > 3*200 {
			ops = ops[:3*200]
		}
		for k := 0; k+3 <= len(ops); k += 3 {
			op, a, b := ops[k]%7, int(ops[k+1]), int(ops[k+2])
			switch op {
			case 0, 1: // submit
				sp := JobSpec{
					Name:     "f",
					Command:  "x",
					Cores:    1 + a%14, // 13 and 14 exceed the cluster
					MemB:     1 + int64(b>>4)<<16,
					Duration: 1 + int64(b%4),
					GPUs:     (a >> 4) % 4, // 3 exceeds a node
				}
				if (b>>2)%4 == 0 {
					sp.ActualMemB = 2 << 20 // more than a node has: OOM
				}
				if _, err := s.Submit(cred(ids.UID(1000+(a>>6)%3)), sp); err == nil {
					submitted++
				}
			case 2: // cancel, by the owner or someone else
				_ = s.Cancel(cred(ids.UID(1000+b%4)), a%(submitted+1))
			case 3:
				s.Step()
			case 4: // crash, and the tick that fails the node's jobs
				nodes[a%len(nodes)].Crash()
				s.Step()
			case 5:
				if n := nodes[a%len(nodes)]; n.Down() {
					n.Restore()
				}
			case 6:
				s.RunAll(1 + b%16)
			}
			checkAggregates(t, s, "after op")
			checkIndexes(t, s, "after op")
			checkTaskProcesses(t, s, "after op")
			checkPassComplete(t, s, "after op")
		}
	})
}

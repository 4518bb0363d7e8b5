package sched

import (
	"fmt"
	"strings"

	"repro/internal/ids"
	"repro/internal/metrics"
)

// Slurm-style text renderers. These exist so the CLI tools show users
// exactly what the real commands would — including what PrivateData
// *removes* from the output.

// SqueueText renders the observer's squeue view like `squeue -l`.
func (s *Scheduler) SqueueText(observer ids.Credential, resolve func(ids.UID) string) string {
	t := metrics.NewTable("squeue", "JOBID", "NAME", "USER", "ST", "NODES", "NODELIST")
	for _, j := range s.Squeue(observer) {
		t.AddRow(j.ID, j.Spec.Name, userName(resolve, j.User), j.State.String(),
			len(j.Nodes), strings.Join(j.Nodes, ","))
	}
	return t.Render()
}

func userName(resolve func(ids.UID) string, uid ids.UID) string {
	if resolve == nil {
		return fmt.Sprintf("%d", uid)
	}
	return resolve(uid)
}

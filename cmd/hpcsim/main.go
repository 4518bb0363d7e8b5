// Command hpcsim builds a simulated HPC cluster under a chosen
// separation profile, provisions users, runs a mixed workload, and
// prints what the system looks like from different viewpoints — the
// quickest way to *see* the paper's "it looks like they're the only
// one on the HPC system" effect.
//
//	go run ./cmd/hpcsim -profile enhanced -users 4 -jobs 40
//	go run ./cmd/hpcsim -profile baseline
//	go run ./cmd/hpcsim -profile enhanced -ablate hidepid,privatedata
//	go run ./cmd/hpcsim -measures
//
// With -attack <model> an adversary campaign (internal/attack) runs
// against the busy cluster before the drain and its tick-stamped
// event timeline is printed — the red-team counterpart of the
// what-do-I-see views:
//
//	go run ./cmd/hpcsim -profile enhanced -attack kill-chain
//	go run ./cmd/hpcsim -attack list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/attack"
	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/workload"
)

func main() {
	profileName := flag.String("profile", "enhanced", "separation profile: baseline or enhanced")
	ablate := flag.String("ablate", "", "comma-separated measures to drop from the profile (see -measures)")
	listMeasures := flag.Bool("measures", false, "list the separation-measure registry and exit")
	users := flag.Int("users", 4, "number of users")
	jobs := flag.Int("jobs", 40, "jobs per user")
	nodes := flag.Int("nodes", 8, "compute nodes")
	seed := flag.Uint64("seed", 1, "workload RNG seed")
	attackModel := flag.String("attack", "", "run an adversary campaign against the busy cluster (attacker model name, or 'list')")
	flag.Parse()

	if *attackModel == "list" {
		t := metrics.NewTable("attacker-model registry", "model", "steps")
		for _, m := range attack.Models() {
			t.AddRow(m.Model, strings.Join(m.Steps, ", "))
		}
		fmt.Println(t.Render())
		return
	}

	if *listMeasures {
		t := metrics.NewTable("separation-measure registry", "measure", "paper", "summary")
		for _, m := range core.Measures() {
			t.AddRow(m.Name, m.Section, m.Summary)
		}
		fmt.Println(t.Render())
		return
	}

	profile, err := core.ProfileByName(*profileName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hpcsim: %v\n", err)
		os.Exit(2)
	}
	topo := core.DefaultTopology()
	topo.ComputeNodes = *nodes

	opts := []core.Option{core.WithTopology(topo)}
	for _, m := range strings.Split(*ablate, ",") {
		if m = strings.TrimSpace(m); m != "" {
			opts = append(opts, core.Without(m))
		}
	}
	c, err := core.NewWithProfile(profile, opts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hpcsim: %v\n", err)
		os.Exit(1)
	}
	cfg := c.Cfg
	if diff := profile.MustConfig().Diff(cfg); len(diff) > 0 {
		fmt.Printf("ablated vs %s:\n  %s\n\n", profile.Name, strings.Join(diff, "\n  "))
	}

	rng := metrics.NewRNG(*seed)
	var accounts []*core.User
	var batches [][]workload.Submission
	for i := 0; i < *users; i++ {
		u, err := c.AddUser(fmt.Sprintf("user%d", i), "pw")
		if err != nil {
			fmt.Fprintf(os.Stderr, "hpcsim: %v\n", err)
			os.Exit(1)
		}
		accounts = append(accounts, u)
		batches = append(batches, workload.MonteCarlo(rng.Split(), workload.SweepConfig{
			User: u.Cred, Jobs: *jobs,
			MinCores: 1, MaxCores: topo.CoresPerNode / 2,
			MinDur: 1, MaxDur: 5, MemB: 1 << 20,
		}))
	}
	if _, err := workload.SubmitAll(c.Sched, workload.Mix(batches...)); err != nil {
		fmt.Fprintf(os.Stderr, "hpcsim: submit: %v\n", err)
		os.Exit(1)
	}

	// Run a few ticks so the cluster is busy, then report.
	for i := 0; i < 3; i++ {
		c.Step()
	}

	fmt.Printf("cluster: %d compute nodes × %d cores, config=%s\n\n",
		topo.ComputeNodes, topo.CoresPerNode, cfg.Name)

	obs := accounts[0]
	resolve := func(uid ids.UID) string {
		if u, err := c.Registry.User(uid); err == nil {
			return u.Name
		}
		return fmt.Sprintf("%d", uid)
	}
	fmt.Println(c.Sched.SqueueText(obs.Cred, resolve))

	t := metrics.NewTable("what "+obs.Name+" sees", "view", "rows/entries")
	t.AddRow("squeue", len(c.Sched.Squeue(obs.Cred)))
	t.AddRow("sacct", len(c.Sched.Sacct(obs.Cred)))
	t.AddRow("ps on login0", len(c.Proc[c.Logins[0].Name].List(obs.Cred)))
	t.AddRow("squeue as root", len(c.Sched.Squeue(ids.RootCred())))
	fmt.Println(t.Render())

	nt := metrics.NewTable("node occupancy as "+obs.Name+" sees it", "node", "cores busy", "own cores", "users")
	for _, info := range c.Sched.Sinfo(obs.Cred) {
		usersCell := fmt.Sprintf("%d", info.Users)
		if info.Users == -1 {
			usersCell = "(hidden)"
		}
		nt.AddRow(info.Name, info.UsedCores, info.OwnCores, usersCell)
	}
	fmt.Println(nt.Render())

	if *attackModel != "" {
		spec, err := attack.ModelByName(*attackModel)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hpcsim: %v\n", err)
			os.Exit(2)
		}
		cs, err := spec.Compile()
		if err != nil {
			fmt.Fprintf(os.Stderr, "hpcsim: %v\n", err)
			os.Exit(2)
		}
		// The campaign's own stream: derived from the workload seed but
		// independent of it, mirroring the fleet executor's split.
		arng := metrics.NewRNG(metrics.StreamSeed(*seed, attack.StreamIndex))
		out, _, err := cs.Execute(c, arng, 100000)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hpcsim: attack: %v\n", err)
			os.Exit(1)
		}
		evlog := audit.NewLog()
		for _, e := range out.Events {
			evlog.Record(e)
		}
		fmt.Println(evlog.Table(out.Model + " vs " + cfg.Name).Render())
		verdict := "contained: no non-residual leak"
		if out.Success {
			verdict = fmt.Sprintf("BROKE THROUGH at step %d", out.StepsToFirstLeak)
		}
		fmt.Printf("campaign %s on %s: %s; %d/%d steps leaked (%d residual), %d ticks used\n\n",
			out.Model, cfg.Name, verdict, out.Leaks, out.Steps, out.ResidualLeaks, out.TicksUsed)
	}

	ticks := c.RunAll(100000)
	crashes, cofail := c.Sched.Crashes()
	st := metrics.NewTable("run summary", "metric", "value")
	st.AddRow("ticks to drain", ticks)
	st.AddRow("utilization", c.Sched.Utilization())
	st.AddRow("node crashes", crashes)
	st.AddRow("cross-user cofailures", cofail)
	st.AddRow("max users per node", c.Sched.MaxUsersPerNode())
	fmt.Println(st.Render())
}

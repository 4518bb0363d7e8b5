// Quickstart: build two clusters — one stock ("baseline"), one with
// the paper's enhanced user separation — put the same two users on
// each, and watch the same accidental-disclosure scenario play out
// differently.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sched"
	"repro/internal/vfs"
)

func main() {
	for _, p := range core.Profiles() {
		fmt.Printf("=== %s configuration ===\n", p.Name)
		demo(p)
		fmt.Println()
	}
}

func demo(p core.Profile) {
	c, err := core.NewWithProfile(p)
	if err != nil {
		log.Fatal(err)
	}
	alice, err := c.AddUser("alice", "alice-pw")
	if err != nil {
		log.Fatal(err)
	}
	bob, err := c.AddUser("bob", "bob-pw")
	if err != nil {
		log.Fatal(err)
	}

	// Alice runs a job whose command line carries a secret.
	jobID, err := c.Sched.Submit(alice.Cred, sched.JobSpec{
		Name:    "train-model",
		Command: "python train.py --api-key=SECRET123",
		Cores:   4, MemB: 1 << 20, Duration: 100,
	})
	if err != nil {
		log.Fatal(err)
	}
	c.Step()

	// 1. Can bob see alice's job and command line via the scheduler?
	visible := 0
	for _, j := range c.Sched.Squeue(bob.Cred) {
		if j.User == alice.UID {
			visible++
		}
	}
	fmt.Printf("bob sees alice's jobs in squeue:        %d\n", visible)

	// 2. Can bob read alice's process command line on the job node?
	running, _ := c.Sched.Job(jobID)
	view := c.Proc[running.Nodes[0]]
	leaked := 0
	for _, p := range view.Readable(bob.Cred) {
		if p.Cred.UID == alice.UID {
			leaked++
		}
	}
	fmt.Printf("alice's processes readable by bob:      %d\n", leaked)

	// 3. Alice fat-fingers a chmod on a scratch file.
	actx := vfs.Ctx(alice.Cred)
	if err := c.SharedFS.WriteFile(actx, "/scratch/shared/results.dat", []byte("preliminary findings"), 0o600); err != nil {
		log.Fatal(err)
	}
	if err := c.SharedFS.Chmod(actx, "/scratch/shared/results.dat", 0o644); err != nil {
		log.Fatal(err)
	}
	if _, err := c.SharedFS.ReadFile(vfs.Ctx(bob.Cred), "/scratch/shared/results.dat"); err == nil {
		fmt.Println("bob read alice's mistyped-chmod file:   YES (leak)")
	} else {
		fmt.Println("bob read alice's mistyped-chmod file:   no (smask)")
	}

	// 4. Bob port-scans alice's service.
	h, _ := c.Host(running.Nodes[0])
	if _, err := h.Listen(alice.Cred, netsim.TCP, 8000); err != nil {
		log.Fatal(err)
	}
	bh, _ := c.Host(c.Logins[0].Name)
	if _, err := bh.Dial(bob.Cred, netsim.TCP, running.Nodes[0], 8000); err == nil {
		fmt.Println("bob connected to alice's service:       YES (leak)")
	} else {
		fmt.Println("bob connected to alice's service:       no (UBF)")
	}

	// 5. Can bob even ssh to the node alice's job runs on?
	if _, err := c.LoginShell(running.Nodes[0], bob.Cred); err == nil {
		fmt.Println("bob ssh'd to alice's compute node:      YES (leak)")
	} else {
		fmt.Println("bob ssh'd to alice's compute node:      no (pam_slurm)")
	}
}

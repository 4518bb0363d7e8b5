// Jupyter-through-the-portal: the web workflow of paper §IV-E. A
// researcher launches a notebook server inside a batch job on
// whatever compute node the scheduler picks, registers it with the
// HPC portal, and reaches it from "outside" — while other users, even
// authenticated ones, cannot.
//
//	go run ./examples/jupyter-portal
package main

import (
	"errors"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/portal"
	"repro/internal/sched"
)

func main() {
	c, err := core.NewWithProfile(core.EnhancedProfile())
	if err != nil {
		log.Fatal(err)
	}
	researcher, err := c.AddUser("researcher", "correct-horse")
	if err != nil {
		log.Fatal(err)
	}
	colleague, err := c.AddUser("colleague", "battery-staple")
	if err != nil {
		log.Fatal(err)
	}

	// 1. Batch job hosting the notebook server.
	jobID, err := c.Sched.Submit(researcher.Cred, sched.JobSpec{
		Name:    "jupyter",
		Command: "jupyter lab --no-browser --port=8888",
		Cores:   4, MemB: 1 << 20, GPUs: 1, Duration: 1000,
	})
	if err != nil {
		log.Fatal(err)
	}
	c.Step()
	running, _ := c.Sched.Job(jobID)
	node := running.Nodes[0]
	fmt.Printf("notebook job %d landed on %s (scheduler's choice — any node works)\n", jobID, node)

	// 2. The server binds on that node, as the researcher.
	host, _ := c.Host(node)
	app, err := portal.Serve(host, researcher.Cred, 8888)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Register the route with the portal.
	if _, err := c.Portal.Register(researcher.Cred, "/jupyter/researcher", node, 8888); err != nil {
		log.Fatal(err)
	}

	// 4. The researcher logs in and reaches the notebook.
	tok, err := c.Portal.Login(researcher.Cred, "correct-horse")
	if err != nil {
		log.Fatal(err)
	}
	resp, err := c.Portal.Forward(tok, "/jupyter/researcher", []byte("GET /api/kernels"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("researcher -> notebook: %s\n", resp)
	fmt.Printf("requests delivered to the app: %d\n", app.Drain())

	// 5. An authenticated *colleague* cannot reach it: the forwarded
	// hop runs as the colleague and the UBF drops it at the listener.
	ctok, err := c.Portal.Login(colleague.Cred, "battery-staple")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := c.Portal.Forward(ctok, "/jupyter/researcher", []byte("GET /")); errors.Is(err, portal.ErrForbidden) {
		fmt.Println("colleague -> notebook: 403 (UBF enforced on the forwarded hop)")
	} else {
		fmt.Printf("colleague -> notebook: unexpected %v\n", err)
	}

	// 6. Unauthenticated access never even reaches the network.
	if _, err := c.Portal.Forward("stolen-or-missing-token", "/jupyter/researcher", nil); errors.Is(err, portal.ErrUnauthenticated) {
		fmt.Println("anonymous -> notebook: 401 (portal authentication required)")
	}
}

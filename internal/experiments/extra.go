package experiments

// E13..E15 cover the paper's comparators and framing arguments:
// the traditional PPS firewall it replaces (§IV-D), the
// application-layer "Option #1" of encrypting MPI traffic (§III,
// §IV-D), and the Spectre/Meltdown security-tax framing of the
// introduction (§I).

import (
	"fmt"

	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/mitig"
	"repro/internal/mpicrypt"
	"repro/internal/netsim"
	"repro/internal/ppsfw"
	"repro/internal/ubf"
)

// E13PPSComparison: the "version 0 app" dilemma. A traditional
// ports/protocols/services firewall either blocks the user's own
// novel application or, once a broad range is opened, admits
// cross-user traffic. The UBF handles both correctly with no
// pre-approval workflow.
func E13PPSComparison() *metrics.Table {
	t := metrics.NewTable("E13: traditional PPS firewall vs user-based firewall",
		"firewall policy", "owner reaches own novel app", "stranger blocked", "admin pre-approval needed")
	owner := ids.Credential{UID: 1000, EGID: 1000, Groups: []ids.GID{1000}}
	stranger := ids.Credential{UID: 2000, EGID: 2000, Groups: []ids.GID{2000}}
	const novelPort = 47113

	run := func(install func(h *netsim.Host)) (ownerOK, strangerBlocked bool) {
		n := netsim.NewNetwork()
		h1, h2 := n.AddHost("a"), n.AddHost("b")
		install(h2)
		if _, err := h2.Listen(owner, netsim.TCP, novelPort); err != nil {
			panic(err)
		}
		_, err := h1.Dial(owner, netsim.TCP, "b", novelPort)
		ownerOK = err == nil
		_, err = h1.Dial(stranger, netsim.TCP, "b", novelPort)
		strangerBlocked = err != nil
		return
	}

	ok, blocked := run(func(h *netsim.Host) {
		fw := ppsfw.New()
		fw.Approve("ssh", netsim.TCP, 22, 22)
		fw.InstallOn(h)
	})
	t.AddRow("PPS, strict service list", yesNo(ok), yesNo(blocked), "yes (per app)")

	ok, blocked = run(func(h *netsim.Host) {
		fw := ppsfw.New()
		fw.Approve("user-ports", netsim.TCP, 1024, 65535)
		fw.InstallOn(h)
	})
	t.AddRow("PPS, open user-port range", yesNo(ok), yesNo(blocked), "yes (once)")

	ok, blocked = run(func(h *netsim.Host) {
		d := ubf.New(ubf.Config{})
		d.InstallOn(h)
	})
	t.AddRow("user-based firewall", yesNo(ok), yesNo(blocked), "no")

	t.AddNote("the paper: a PPS firewall 'would have no way to make an intelligent decision' about version-0 apps")
	return t
}

// E14CryptoMPIComparison: where the cost lives for "Option #1"
// (encrypt MPI traffic in the library) versus "Option #2" (the UBF in
// the system). The UBF pays two ident queries per NEW connection and
// nothing per packet; AES-GCM pays a transform on every byte forever,
// and protects confidentiality but not who-may-connect.
func E14CryptoMPIComparison() *metrics.Table {
	t := metrics.NewTable("E14: Option 1 (encrypted MPI) vs Option 2 (UBF) — 100 conns × 50 packets",
		"approach", "ident queries", "crypto ops", "cross-user conn blocked", "payload confidential on wire")
	const conns, packets = 100, 50
	payload := []byte("halo-exchange-block-0123456789abcdef")

	// Option 2: UBF.
	{
		n := netsim.NewNetwork()
		h1, h2 := n.AddHost("a"), n.AddHost("b")
		d := ubf.New(ubf.Config{})
		d.InstallOn(h1)
		d.InstallOn(h2)
		alice := ids.Credential{UID: 1000, EGID: 1000, Groups: []ids.GID{1000}}
		mallory := ids.Credential{UID: 2000, EGID: 2000, Groups: []ids.GID{2000}}
		l, err := h2.Listen(alice, netsim.TCP, 9000)
		if err != nil {
			panic(err)
		}
		for i := 0; i < conns; i++ {
			c, err := h1.Dial(alice, netsim.TCP, "b", 9000)
			if err != nil {
				panic(err)
			}
			for p := 0; p < packets; p++ {
				if err := c.Send(payload); err != nil {
					panic(err)
				}
			}
			c.Close()
		}
		_, crossErr := h1.Dial(mallory, netsim.TCP, "b", 9000)
		// Wire sniff: data is plaintext (UBF does not encrypt).
		c, _ := h1.Dial(alice, netsim.TCP, "b", 9000)
		_ = c.Send(payload)
		var sniffed []byte
		for {
			sc, ok := l.Accept()
			if !ok {
				break
			}
			if d, ok := sc.Recv(); ok {
				sniffed = d
			}
		}
		confidential := string(sniffed) != string(payload)
		t.AddRow("UBF (system-level)", n.IdentQueries.Load(), 0, yesNo(crossErr != nil), yesNo(confidential))
	}

	// Option 1: encrypted MPI, no firewall.
	{
		n := netsim.NewNetwork()
		h1, h2 := n.AddHost("a"), n.AddHost("b")
		alice := ids.Credential{UID: 1000, EGID: 1000, Groups: []ids.GID{1000}}
		mallory := ids.Credential{UID: 2000, EGID: 2000, Groups: []ids.GID{2000}}
		l, err := h2.Listen(alice, netsim.TCP, 9000)
		if err != nil {
			panic(err)
		}
		cryptoOps := 0
		var lastWire []byte
		for i := 0; i < conns; i++ {
			raw, err := h1.Dial(alice, netsim.TCP, "b", 9000)
			if err != nil {
				panic(err)
			}
			sc, err := mpicrypt.Secure(raw, []byte("job-token"))
			if err != nil {
				panic(err)
			}
			for p := 0; p < packets; p++ {
				if err := sc.Send(payload); err != nil {
					panic(err)
				}
				cryptoOps++
			}
			raw.Close()
		}
		// Cross-user connection: nothing stops it at the transport.
		_, crossErr := h1.Dial(mallory, netsim.TCP, "b", 9000)
		// Wire sniff of one message.
		raw, _ := h1.Dial(alice, netsim.TCP, "b", 9000)
		sc, _ := mpicrypt.Secure(raw, []byte("job-token"))
		_ = sc.Send(payload)
		for {
			acc, ok := l.Accept()
			if !ok {
				break
			}
			if d, ok := acc.Recv(); ok {
				lastWire = d
			}
		}
		confidential := string(lastWire) != string(payload)
		t.AddRow("encrypted MPI (library-level)", n.IdentQueries.Load(), cryptoOps, yesNo(crossErr != nil), yesNo(confidential))
	}
	t.AddNote("UBF: fixed per-connection cost, no data-path work, blocks strangers, leaves payload in clear")
	t.AddNote("crypto MPI: per-packet cost forever, hides payload, but any user may still connect (Option-1 gap)")
	return t
}

// E15MitigationTax: the introduction's framing — kernel-level
// Spectre/Meltdown mitigations cost 15-40% on affected workloads,
// while the paper's separation measures add no data-path cost at all.
func E15MitigationTax() *metrics.Table {
	t := metrics.NewTable("E15: Spectre/Meltdown mitigation tax by workload class (§I, ref [2])",
		"workload", "slowdown (mitigations=auto)", "in paper's 15-40% band")
	on := mitig.DefaultMitigations()
	for _, w := range mitig.Profiles() {
		s := mitig.Slowdown(w, on)
		band := "n/a (compute-bound)"
		if w.SyscallUnits+w.SwitchUnits > 5 {
			band = yesNo(s >= 0.15 && s <= 0.40)
		}
		t.AddRow(w.Name, fmt.Sprintf("%.1f%%", s*100), band)
	}
	t.AddNote("contrast: E8 shows the UBF adds zero per-packet work; separation is not a mitigation-style tax")
	return t
}

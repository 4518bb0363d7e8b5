package attack

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Step is one registry entry: a catalogue entry under the name
// campaigns reference in Spec.Steps. The engine adds the pacing; the
// attempt, channel, closing condition and E16 label are the entry's.
type Step struct {
	// Name is the registry key; it shadows the catalogue entry's name,
	// which stays reachable as Entry.Name.
	Name string
	// Summary is a one-line description for CLI listings.
	Summary string
	Entry

	// leakIndex and channelIndex are the step's slot in StepCounts and
	// its channel's in ChannelCounts.
	leakIndex, channelIndex int
}

// stepRegistry holds every known attack step. Listing order is
// alphabetical by name (enforced by Steps' sort and pinned by test)
// so CLI output is stable; execution order is the campaign's.
var stepRegistry = [...]Step{
	{Name: "recon-proc", Entry: entry("ps-foreign-visible"),
		Summary: "list /proc on the victim's login node for foreign pids"},
	{Name: "recon-squeue", Entry: entry("squeue-foreign-job"),
		Summary: "enumerate foreign jobs (and their command lines) via squeue"},
	{Name: "tmp-harvest", Entry: entry("tmp-filename-listing"),
		Summary: "harvest victim file names from the world-writable /tmp listing"},
	{Name: "node-roam", Entry: entry("ssh-roam-to-victim-node"),
		Summary: "ssh to the victim's compute node without holding a job there"},
	{Name: "home-probe", Entry: entry("home-file-read"),
		Summary: "read a results file out of the victim's home directory"},
	{Name: "symlink-plant", Entry: entry("symlink-plant"),
		Summary: "plant a /tmp symlink where the victim's job writes, clobbering their results"},
	{Name: "ubf-probe", Entry: entry("cross-user-dial"),
		Summary: "dial the victim's network service on its compute node cross-user"},
	{Name: "portal-pivot", Entry: entry("portal-cross-user-forward"),
		Summary: "authenticate to the web portal and forward into the victim's app"},
	{Name: "abstract-probe", Entry: entry("abstract-socket-send"),
		Summary: "inject a datagram into the victim's abstract-namespace socket"},
	{Name: "rdma-pivot", Entry: entry("rdma-native-cm-qp"),
		Summary: "establish an RDMA QP to the victim's node via native CM, under the firewall"},
	{Name: "gpu-residue", Entry: entry("gpu-residue"),
		Summary: "read the previous GPU job's device memory after the victim's job ends"},
	{Name: "container-escape", Entry: entry("container-escape"),
		Summary: "run a container without approval and read the victim's home from inside"},
}

// stepNames is the registry's names, sorted: StepCounts' index.
var stepNames = StepNames()

func init() {
	for i := range stepRegistry {
		st := &stepRegistry[i]
		st.leakIndex, _ = slices.BinarySearch(stepNames, st.Name)
		var ok bool
		if st.channelIndex, ok = slices.BinarySearch(channelNames[:], string(st.Channel)); !ok {
			panic("attack: step " + st.Name + " has a channel ChannelCounts does not count")
		}
	}
}

// Steps returns the registry sorted by name. The slice is a copy.
func Steps() []Step {
	steps := append([]Step(nil), stepRegistry[:]...)
	sort.Slice(steps, func(i, j int) bool { return steps[i].Name < steps[j].Name })
	return steps
}

// StepByName resolves a registry step.
func StepByName(name string) (Step, error) {
	for _, st := range stepRegistry[:] {
		if st.Name == name {
			return st, nil
		}
	}
	return Step{}, fmt.Errorf("unknown step %q (have %s)", name, strings.Join(StepNames(), ", "))
}

// StepNames lists the registry names, sorted, for error messages and
// CLI usage strings.
func StepNames() []string {
	names := make([]string, 0, len(stepRegistry))
	for _, st := range stepRegistry[:] {
		names = append(names, st.Name)
	}
	sort.Strings(names)
	return names
}

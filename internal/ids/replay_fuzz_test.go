package ids

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

// fuzzKinds maps a fuzz byte's low three bits to a replayOp kind; 'x'
// is Reset, which ends a cycle. Registrations get four codes, so most
// inputs build a population worth replaying.
const fuzzKinds = "rrrrggmx"

// fuzzNames is the pool a fuzz byte's next three bits pick a name
// from: few names, so registrations and project groups collide
// often, and "root", which no registration may take.
var fuzzNames = []string{"a", "b", "c", "d", "e", "f", "g", "root"}

// decodeReplayOps turns fuzz bytes into registry calls.
func decodeReplayOps(data []byte) []replayOp {
	ops := make([]replayOp, len(data))
	for i, b := range data {
		ops[i] = replayOp{fuzzKinds[b&7], fuzzNames[b>>3&7]}
	}
	return ops
}

// encodeReplayOps is decodeReplayOps' inverse for seed scripts: each
// field is a kind letter followed by a pool name ("ra", "groot"), or
// "m" or "x" alone.
func encodeReplayOps(tb testing.TB, script string) []byte {
	var out []byte
	for _, f := range strings.Fields(script) {
		k := strings.IndexByte(fuzzKinds, f[0])
		n := 0
		if len(f) > 1 {
			n = slices.Index(fuzzNames, f[1:])
		}
		if k < 0 || n < 0 {
			tb.Fatalf("bad seed op %q", f)
		}
		out = append(out, byte(n<<3|k))
	}
	return out
}

// replaySeeds are FuzzRegistryReplay's seed scripts; they run in every
// go test.
var replaySeeds = []string{
	// Identical replays without a mark, and with an empty one.
	"ra rb rc x ra rb rc x ra rb rc",
	"m ra rb rc x ra rb rc x ra rb rc",
	// A marked project group, then replays past it.
	"ga m ra rb x ra rb x ra rb",
	// A project group takes a kept name during the trial: the replay
	// of that name must fail, and so must the next trial's.
	"m ra rb rc x ra gb rb rc x ra rb rc",
	"ra rb rc x ra gb rb rc x ra rb rc",
	// A project group takes the next kept name and a mark holds it:
	// the registration of that name must still fail.
	"ra rb rc x ra gb m rb rc x ra rc",
	"m ra rb rc x ra gb m rb rc x rb rc",
	// root is refused on every path.
	"ra rroot rb x ra rroot rb x rroot ra",
	// Divergent trials, prefixes and swaps.
	"ra rb rc x rd ra x ra rd",
	"m ra rb rc rd x ra rb x ra rb rc rd",
	"m ra rb rc x ra rc rb x ra rb rc",
	// A replay cut short by a Reset: the observation that ends the
	// cycle looks up kept names it never replayed.
	"ra rb rc x ra x rb rc",
	// A mark during a replay, and a group created after a Reset
	// without a mark.
	"ra rb rc x ra m rb rc x rb rc x ra",
	"ga ra x ra ga x ga ra",
}

// FuzzRegistryReplay decodes bytes into cycles of Register,
// AddProjectGroup and MarkPristine calls separated by Resets, and
// requires every call's result, and each cycle's observation (which
// resolves every name through the name index), to equal those of a registry that never
// replayed: a fresh registry given the calls that built the state the
// last Reset rewound to, then the same cycle.
//
//	go test -run '^$' -fuzz '^FuzzRegistryReplay$' -fuzztime 10s -fuzzminimizetime 10x ./internal/ids
func FuzzRegistryReplay(f *testing.F) {
	for _, s := range replaySeeds {
		f.Add(encodeReplayOps(f, s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		r, ref := NewRegistry(), NewRegistry()
		// hist holds the calls a fresh registry needs to reach r's
		// state; Reset cuts it back to the calls up to the mark.
		var hist []replayOp
		markLen := 0
		cycle := 0
		compare := func() {
			if got, want := observe(t, r), observe(t, ref); !reflect.DeepEqual(got, want) {
				t.Fatalf("cycle %d: observation diverges from a registry that never replayed:\ngot:  %+v\nwant: %+v", cycle, got, want)
			}
		}
		for i, op := range decodeReplayOps(data) {
			if op.kind == 'x' {
				compare()
				r.Reset()
				hist = hist[:markLen]
				ref = NewRegistry()
				for _, op := range hist {
					op.apply(ref)
				}
				cycle++
				continue
			}
			if got, want := op.apply(r), op.apply(ref); got != want {
				t.Fatalf("cycle %d op %d: %c %q = %s, want %s as a registry that never replayed", cycle, i, op.kind, op.name, got, want)
			}
			hist = append(hist, op)
			if op.kind == 'm' {
				markLen = len(hist)
			}
		}
		compare()
	})
}

package metrics

import (
	"encoding/json"
	"math"
	"testing"
)

// unit draws a value in [0, 1) from r.
func unit(r *RNG) float64 { return float64(r.Uint64()>>11) / float64(1<<53) }

// newHist builds an empty histogram of n buckets over [lo, hi].
func newHist(lo, hi float64, n int) *Histogram {
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int64, n)}
}

func TestAccMergeMatchesSequential(t *testing.T) {
	rng := NewRNG(7)
	var all Acc
	parts := make([]Acc, 5)
	for i := 0; i < 1213; i++ {
		v := unit(rng)*10 - 3
		all.Add(v)
		parts[i%len(parts)].Add(v)
	}
	var merged Acc
	merged.Merge(Acc{}) // empty is a no-op
	for _, p := range parts {
		merged.Merge(p)
	}
	if merged.Count != all.Count || merged.Min != all.Min || merged.Max != all.Max {
		t.Fatalf("count/min/max: merged %+v vs sequential %+v", merged, all)
	}
	if math.Abs(merged.Mean-all.Mean) > 1e-12 {
		t.Errorf("mean: merged %v vs sequential %v", merged.Mean, all.Mean)
	}
	if math.Abs(merged.Variance()-all.Variance()) > 1e-9 {
		t.Errorf("variance: merged %v vs sequential %v", merged.Variance(), all.Variance())
	}
}

func TestAccSmall(t *testing.T) {
	var a Acc
	if a.Variance() != 0 || a.Std() != 0 {
		t.Errorf("empty acc variance nonzero")
	}
	a.Add(5)
	if a.Variance() != 0 {
		t.Errorf("single-sample variance = %v", a.Variance())
	}
	a.Add(7)
	if a.Mean != 6 || a.Variance() != 2 || a.Min != 5 || a.Max != 7 {
		t.Errorf("acc over {5,7} = %+v (var %v)", a, a.Variance())
	}
	// Merging into an empty Acc adopts the other side verbatim.
	var b Acc
	b.Merge(a)
	if b != a {
		t.Errorf("empty.Merge(a) = %+v, want %+v", b, a)
	}
}

func TestHistogramMergeMatchesCombined(t *testing.T) {
	rng := NewRNG(13)
	one := newHist(0, 100, 10)
	parts := []*Histogram{newHist(0, 100, 10), newHist(0, 100, 10), newHist(0, 100, 10)}
	for i := 0; i < 2000; i++ {
		v := unit(rng)*120 - 10 // deliberately spills both ends
		one.Add(v)
		parts[i%len(parts)].Add(v)
	}
	merged := newHist(0, 100, 10)
	for _, p := range parts {
		if err := merged.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := merged.Merge(nil); err != nil {
		t.Fatal(err)
	}
	if merged.Under != one.Under || merged.Over != one.Over {
		t.Fatalf("totals: merged u=%d o=%d vs one u=%d o=%d",
			merged.Under, merged.Over, one.Under, one.Over)
	}
	for i := range merged.Counts {
		if merged.Counts[i] != one.Counts[i] {
			t.Errorf("bucket %d: merged %d vs one %d", i, merged.Counts[i], one.Counts[i])
		}
	}
}

func TestHistogramLayoutGuards(t *testing.T) {
	h := newHist(0, 10, 5)
	if err := h.Merge(newHist(0, 20, 5)); err == nil {
		t.Errorf("layout mismatch merge accepted")
	}
	if err := h.Merge(newHist(0, 10, 4)); err == nil {
		t.Errorf("bucket-count mismatch merge accepted")
	}
	h.Add(10) // hi edge lands in the last bucket, not overflow
	if h.Over != 0 || h.Counts[4] != 1 {
		t.Errorf("hi edge: over=%d counts=%v", h.Over, h.Counts)
	}
}

// The aggregates cross process boundaries (checkpoint sidecars) as
// JSON, so serialization must be lossless down to the last float bit:
// merging a decode(encode(shard)) must equal merging the shard
// itself, statistic for statistic. Go's encoding/json guarantees this
// by emitting the shortest decimal that round-trips each float64.
func TestAccJSONRoundTripMerge(t *testing.T) {
	rng := NewRNG(17)
	fill := func(n int) Acc {
		var a Acc
		for i := 0; i < n; i++ {
			a.Add(unit(rng)*1e6 - 3e5)
		}
		return a
	}
	for _, n := range []int{0, 1, 2, 537} { // empty and single-sample are the degenerate layouts
		shard := fill(n)
		data, err := json.Marshal(shard)
		if err != nil {
			t.Fatal(err)
		}
		var decoded Acc
		if err := json.Unmarshal(data, &decoded); err != nil {
			t.Fatal(err)
		}
		if decoded != shard {
			t.Fatalf("n=%d: decode(encode(acc)) = %+v, want %+v", n, decoded, shard)
		}
		direct := fill(91)
		viaJSON := direct // Acc is a value: copies are independent
		direct.Merge(shard)
		viaJSON.Merge(decoded)
		if direct != viaJSON {
			t.Fatalf("n=%d: merge of decoded shard %+v differs from in-memory merge %+v", n, viaJSON, direct)
		}
	}
}

func TestHistogramJSONRoundTripMerge(t *testing.T) {
	rng := NewRNG(19)
	fill := func(n int) *Histogram {
		h := newHist(0, 50, 8)
		for i := 0; i < n; i++ {
			h.Add(unit(rng)*70 - 10) // spills both ends
		}
		return h
	}
	for _, n := range []int{0, 1, 400} {
		shard := fill(n)
		data, err := json.Marshal(shard)
		if err != nil {
			t.Fatal(err)
		}
		decoded := &Histogram{}
		if err := json.Unmarshal(data, decoded); err != nil {
			t.Fatal(err)
		}
		direct, viaJSON := fill(33), fill(0)
		if err := viaJSON.Merge(direct); err != nil { // same fill(33) content via a second pass
			t.Fatal(err)
		}
		if err := direct.Merge(shard); err != nil {
			t.Fatal(err)
		}
		if err := viaJSON.Merge(decoded); err != nil {
			t.Fatal(err)
		}
		if direct.Under != viaJSON.Under || direct.Over != viaJSON.Over || direct.Lo != viaJSON.Lo || direct.Hi != viaJSON.Hi {
			t.Fatalf("n=%d: merged edges differ: %+v vs %+v", n, viaJSON, direct)
		}
		for i := range direct.Counts {
			if direct.Counts[i] != viaJSON.Counts[i] {
				t.Fatalf("n=%d bucket %d: merged %d via JSON, %d in memory", n, i, viaJSON.Counts[i], direct.Counts[i])
			}
		}
	}
	// An empty decoded histogram (zero-bucket layout) must still fail
	// layout-checked merges loudly rather than silently dropping counts.
	var empty Histogram
	if err := fill(1).Merge(&empty); err == nil {
		t.Error("merge with a layoutless histogram accepted")
	}
}

// StreamSeed must be random access into exactly the draws a parent
// generator makes sequentially.
func TestStreamSeedMatchesSequentialSplit(t *testing.T) {
	const seed = 12345
	seq := NewRNG(seed)
	for i := uint64(0); i < 50; i++ {
		want := seq.Uint64() // i-th draw == seed of the i-th sequential child
		if got := StreamSeed(seed, i); got != want {
			t.Fatalf("StreamSeed(%d, %d) = %#x, want %#x", seed, i, got, want)
		}
	}
}

// Child streams, each seeded by one parent draw (the derivation
// MixSpec uses per user), must not correlate or collide: across 8
// children x 1e5 draws every value is distinct (SplitMix64 is a
// bijection per stream; cross-stream collisions at this volume would
// mean the streams overlap), and each stream's mean unit draw sits
// near 1/2.
func TestRNGSplitStreamIndependence(t *testing.T) {
	const (
		streams = 8
		draws   = 100000
	)
	parent := NewRNG(2024)
	seen := make(map[uint64]struct{}, streams*draws)
	for s := 0; s < streams; s++ {
		child := NewRNG(parent.Uint64())
		var sum float64
		for i := 0; i < draws; i++ {
			v := child.Uint64()
			if _, dup := seen[v]; dup {
				t.Fatalf("stream %d draw %d: value %#x already produced by another stream", s, i, v)
			}
			seen[v] = struct{}{}
			sum += float64(v>>11) / float64(1<<53)
		}
		if mean := sum / draws; mean < 0.49 || mean > 0.51 {
			t.Errorf("stream %d mean %v outside [0.49, 0.51]", s, mean)
		}
	}
	// Pairwise lag-0 correlation proxy: identical prefixes would have
	// been caught by the collision set; additionally the XOR of first
	// draws across streams must not vanish.
	first := make([]uint64, streams)
	p2 := NewRNG(2024)
	for s := range first {
		first[s] = NewRNG(p2.Uint64()).Uint64()
	}
	for i := 0; i < streams; i++ {
		for j := i + 1; j < streams; j++ {
			if first[i] == first[j] {
				t.Errorf("streams %d and %d share their first draw", i, j)
			}
		}
	}
}

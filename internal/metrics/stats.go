// Mergeable streaming statistics for sharded campaign execution:
// Acc is an online (Welford) mean/variance accumulator and Histogram
// a fixed-bucket counter, both combinable with Merge so shards
// aggregate trial results without ever retaining per-trial sample
// slices. Merging is deterministic for a fixed merge ORDER — the
// fleet executor always reduces shards in trial-index order, which
// is what makes campaign output bit-identical across worker counts.

package metrics

import (
	"fmt"
	"math"
)

// Acc accumulates count / mean / variance / min / max online. The
// exported fields are the mergeable state (Chan et al. parallel
// variance form); they marshal to JSON so a shard's partial can
// cross a process boundary and still merge exactly.
type Acc struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	M2    float64 `json:"m2"` // sum of squared deviations from the mean
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// Add folds one sample in.
func (a *Acc) Add(v float64) {
	if a.Count == 0 || v < a.Min {
		a.Min = v
	}
	if a.Count == 0 || v > a.Max {
		a.Max = v
	}
	a.Count++
	d := v - a.Mean
	a.Mean += d / float64(a.Count)
	a.M2 += d * (v - a.Mean)
}

// Merge folds another accumulator in. Count/Min/Max merge exactly;
// Mean/M2 use the parallel Welford combination, which is exact in
// real arithmetic and reproducible in floating point whenever the
// merge order is fixed.
func (a *Acc) Merge(b Acc) {
	if b.Count == 0 {
		return
	}
	if a.Count == 0 {
		*a = b
		return
	}
	n := float64(a.Count + b.Count)
	d := b.Mean - a.Mean
	a.Mean += d * float64(b.Count) / n
	a.M2 += b.M2 + d*d*float64(a.Count)*float64(b.Count)/n
	if b.Min < a.Min {
		a.Min = b.Min
	}
	if b.Max > a.Max {
		a.Max = b.Max
	}
	a.Count += b.Count
}

// Variance returns the sample variance (0 for fewer than 2 samples).
func (a Acc) Variance() float64 {
	if a.Count < 2 {
		return 0
	}
	return a.M2 / float64(a.Count-1)
}

// Std returns the sample standard deviation.
func (a Acc) Std() float64 { return math.Sqrt(a.Variance()) }

// Histogram counts samples into equal-width buckets over [Lo, Hi].
// The bucket layout is part of the mergeable state: two histograms
// combine iff their layouts match, and merged counts equal the
// counts a single histogram would have accumulated.
type Histogram struct {
	Lo     float64 `json:"lo"`
	Hi     float64 `json:"hi"`
	Counts []int64 `json:"counts"`
	Under  int64   `json:"under"` // samples < Lo
	Over   int64   `json:"over"`  // samples > Hi
}

// Add counts one sample.
func (h *Histogram) Add(v float64) {
	switch {
	case v < h.Lo:
		h.Under++
	case v > h.Hi:
		h.Over++
	default:
		idx := int((v - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
		if idx >= len(h.Counts) { // v == Hi
			idx = len(h.Counts) - 1
		}
		h.Counts[idx]++
	}
}

// Merge folds another histogram with the identical layout in.
func (h *Histogram) Merge(other *Histogram) error {
	if other == nil {
		return nil
	}
	if h.Lo != other.Lo || h.Hi != other.Hi || len(h.Counts) != len(other.Counts) {
		return fmt.Errorf("metrics: histogram layout mismatch: [%v, %v] x %d vs [%v, %v] x %d",
			h.Lo, h.Hi, len(h.Counts), other.Lo, other.Hi, len(other.Counts))
	}
	for i, c := range other.Counts {
		h.Counts[i] += c
	}
	h.Under += other.Under
	h.Over += other.Over
	return nil
}

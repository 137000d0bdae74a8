// Package metrics is the simulator's always-on observability layer:
// counters and fixed-bucket cycle histograms keyed by (compartment,
// backend, vCPU), kept live by the components that own them — the gate
// registry's crossing ledger, per-vCPU clock ledgers, NIC queues, the
// shared pool and the supervisor — and copied into a Snapshot off the
// hot path, so a completed run yields a full cycle-attribution
// breakdown instead of a flat trace dump.
//
// The hot path allocates nothing: Histogram.Observe is plain
// arithmetic on fixed storage. Snapshots read the live counters
// directly, so they stay exact even when the bounded trace ring has
// dropped events.
package metrics

import (
	"fmt"
	"math/bits"
	"sort"
)

// Label keys one instrument: the compartment (or pseudo-compartment,
// e.g. a crossing pair "comp0->comp1" or a NIC queue "queue2"), the
// isolation backend of the image, and the vCPU the activity ran on.
// CPU -1 means "machine-wide" (not attributable to one vCPU).
type Label struct {
	Comp    string `json:"comp"`
	Backend string `json:"backend"`
	CPU     int    `json:"cpu"`
}

// NumBuckets is the fixed histogram bucket count: log2 buckets
// [0,1), [1,2), [2,4), ... with the last bucket absorbing overflow.
// 2^30 cycles is ~0.5 s of simulated time, far past any single call.
const NumBuckets = 32

// Histogram is a fixed-bucket cycle histogram: bucket i counts
// observations whose value has bit length i (so bucket boundaries are
// powers of two), plus an exact sum and count. Observe is
// allocation-free.
type Histogram struct {
	buckets [NumBuckets]uint64
	count   uint64
	sum     uint64
}

// Observe records one cycle measurement.
func (h *Histogram) Observe(cycles uint64) {
	b := bits.Len64(cycles)
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	h.buckets[b]++
	h.count++
	h.sum += cycles
}

// Count reports how many observations were recorded.
func (h *Histogram) Count() uint64 { return h.count }

// Sum reports the exact sum of all observations.
func (h *Histogram) Sum() uint64 { return h.sum }

// Mean reports the exact mean (0 with no observations).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Buckets returns a copy of the bucket counts.
func (h *Histogram) Buckets() [NumBuckets]uint64 { return h.buckets }

// Quantile reports an upper bound (the bucket's exclusive power-of-two
// boundary) for the q-quantile, q in [0,1].
func (h *Histogram) Quantile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	target := uint64(q * float64(h.count))
	if target >= h.count {
		target = h.count - 1
	}
	var seen uint64
	for i, n := range h.buckets {
		seen += n
		if seen > target {
			if i == 0 {
				return 1
			}
			return 1 << uint(i)
		}
	}
	return 1 << (NumBuckets - 1)
}

// CounterSample is one counter's value at snapshot time.
type CounterSample struct {
	Name string `json:"name"`
	Label
	Value uint64 `json:"value"`
}

// HistogramSample is one histogram's state at snapshot time.
type HistogramSample struct {
	Name string `json:"name"`
	Label
	Count uint64  `json:"count"`
	Sum   uint64  `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   uint64  `json:"p50_le"`
	P99   uint64  `json:"p99_le"`
}

// Snapshot is a deterministic, export-ready copy of a machine's live
// counters and histograms.
type Snapshot struct {
	Counters   []CounterSample   `json:"counters"`
	Histograms []HistogramSample `json:"histograms"`
}

// less orders labels deterministically.
func (l Label) less(o Label) bool {
	if l.Comp != o.Comp {
		return l.Comp < o.Comp
	}
	if l.Backend != o.Backend {
		return l.Backend < o.Backend
	}
	return l.CPU < o.CPU
}

// String implements fmt.Stringer.
func (l Label) String() string {
	if l.CPU < 0 {
		return fmt.Sprintf("%s[%s]", l.Comp, l.Backend)
	}
	return fmt.Sprintf("%s[%s,cpu%d]", l.Comp, l.Backend, l.CPU)
}

// Sort orders the samples deterministically (name, then label).
func (s *Snapshot) Sort() {
	sort.Slice(s.Counters, func(i, j int) bool {
		if s.Counters[i].Name != s.Counters[j].Name {
			return s.Counters[i].Name < s.Counters[j].Name
		}
		return s.Counters[i].Label.less(s.Counters[j].Label)
	})
	sort.Slice(s.Histograms, func(i, j int) bool {
		if s.Histograms[i].Name != s.Histograms[j].Name {
			return s.Histograms[i].Name < s.Histograms[j].Name
		}
		return s.Histograms[i].Label.less(s.Histograms[j].Label)
	})
}

// Counter reports the summed value of every counter with the given
// name across all labels.
func (s *Snapshot) Counter(name string) uint64 {
	var sum uint64
	for _, c := range s.Counters {
		if c.Name == name {
			sum += c.Value
		}
	}
	return sum
}

// Add appends a counter sample, copied from the live count its
// component keeps (crossing ledger rows, NIC queue counters, pool
// stats, supervisor stats) when the snapshot is taken.
func (s *Snapshot) Add(name string, l Label, v uint64) {
	s.Counters = append(s.Counters, CounterSample{Name: name, Label: l, Value: v})
}

// AddHistogram appends a sample of h's current state.
func (s *Snapshot) AddHistogram(name string, l Label, h *Histogram) {
	s.Histograms = append(s.Histograms, HistogramSample{
		Name: name, Label: l,
		Count: h.Count(), Sum: h.Sum(), Mean: h.Mean(),
		P50: h.Quantile(0.50), P99: h.Quantile(0.99),
	})
}

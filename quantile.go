package repro

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// quantileSubBuckets is the log-histogram resolution: buckets per factor
// of two. 16 sub-buckets bound the relative quantile error by
// 2^(1/32) − 1 ≈ 2.2% at a few hundred live buckets per cell even for
// step counts spanning 1 … 2^60.
const quantileSubBuckets = 16

// qhist is a fixed-boundary logarithmic histogram: order-independent,
// mergeable by bucket-wise addition, O(log range) memory. Values ≤ 0
// (possible for derived observables) share one exact-zero bucket.
type qhist struct {
	count   uint64
	zeros   uint64
	sum     float64
	min     float64
	max     float64
	buckets map[int]uint64
}

func newQhist() *qhist {
	return &qhist{min: math.Inf(1), max: math.Inf(-1), buckets: make(map[int]uint64)}
}

func (h *qhist) add(v float64) {
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	if v <= 0 {
		h.zeros++
		return
	}
	h.buckets[int(math.Floor(math.Log2(v)*quantileSubBuckets))]++
}

func (h *qhist) merge(o *qhist) {
	h.count += o.count
	h.zeros += o.zeros
	h.sum += o.sum
	if o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
}

// quantile returns the q-quantile estimate by nearest-rank walk over the
// fixed buckets; representatives are the geometric bucket midpoints,
// clamped into the observed [min, max] so estimates never leave the
// data's range.
func (h *qhist) quantile(q float64) (float64, bool) {
	if h.count == 0 {
		return 0, false
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	cum := h.zeros
	if cum >= rank {
		return h.min, true // all of the ≤0 mass sits at or below min
	}
	idxs := make([]int, 0, len(h.buckets))
	for i := range h.buckets {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		cum += h.buckets[i]
		if cum >= rank {
			rep := math.Exp2((float64(i) + 0.5) / quantileSubBuckets)
			if rep < h.min {
				rep = h.min
			}
			if rep > h.max {
				rep = h.max
			}
			return rep, true
		}
	}
	return h.max, true
}

// quantCell keys one histogram: a (protocol, size) cell × observable.
type quantCell struct {
	Protocol string
	N        int
	Obs      string
}

// QuantileSink is streaming quantile aggregation as a Sink: it distills
// the record stream into per-(protocol, n, observable) p50/p90/p99
// tables in O(log valueRange) memory per cell, never holding records —
// the percentile path for Stream-mode sweeps and fabric workers at
// unbounded trial counts, where the in-memory Report (and its exact
// Summaries) is off the table.
//
// The estimator is a fixed-boundary logarithmic histogram (16 buckets
// per factor of two), which buys three properties exact reservoirs and
// t-digests give up: estimates are deterministic, independent of record
// arrival order (an Experiment delivers trial order, but fabric workers
// and other producers feed records as they complete — a same-spec sweep
// must render the same table at any parallelism), and two sinks merge losslessly by bucket addition (the
// fabric merges worker-side tables without re-reading records). Relative
// quantile error is bounded by 2^(1/32) − 1 ≈ 2.2%.
//
// Record and Close are safe for concurrent use.
type QuantileSink struct {
	mu          sync.Mutex
	observables []string
	cells       map[quantCell]*qhist
}

// NewQuantileSink returns a sink aggregating the named record
// observables; none selects "steps". Scalar observables (steps,
// stabilized, converged) are derived from the record even when a plain
// protocol produced no observables map.
func NewQuantileSink(observables ...string) *QuantileSink {
	if len(observables) == 0 {
		observables = []string{"steps"}
	}
	return &QuantileSink{
		observables: append([]string(nil), observables...),
		cells:       make(map[quantCell]*qhist),
	}
}

// observe extracts one observable from a record, falling back to the
// scalar fields for plain records.
func observe(rec TrialRecord, obs string) (float64, bool) {
	if v, ok := rec.Observables[obs]; ok {
		return v, true
	}
	switch obs {
	case "steps":
		return float64(rec.Steps), true
	case "stabilized":
		return float64(rec.Stabilized), true
	case "converged":
		if rec.Converged {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// Record implements Sink.
func (s *QuantileSink) Record(rec TrialRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, obs := range s.observables {
		v, ok := observe(rec, obs)
		if !ok {
			continue
		}
		key := quantCell{rec.Protocol, rec.N, obs}
		h := s.cells[key]
		if h == nil {
			h = newQhist()
			s.cells[key] = h
		}
		h.add(v)
	}
	return nil
}

// Close implements Sink; the histograms need no flushing.
func (s *QuantileSink) Close() error { return nil }

// Quantile returns the q-quantile estimate of one cell's observable and
// whether any value was recorded for it.
func (s *QuantileSink) Quantile(protocol string, n int, obs string, q float64) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.cells[quantCell{protocol, n, obs}]
	if !ok {
		return 0, false
	}
	return h.quantile(q)
}

// Count returns the number of values recorded for one cell's observable.
func (s *QuantileSink) Count(protocol string, n int, obs string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.cells[quantCell{protocol, n, obs}]
	if !ok {
		return 0
	}
	return h.count
}

// Merge folds another sink's histograms into this one, bucket-wise —
// exact, not an approximation of an approximation: merging per-shard
// sinks yields the histogram a single sink over the full stream would
// hold.
func (s *QuantileSink) Merge(o *QuantileSink) {
	o.mu.Lock()
	theirs := make(map[quantCell]*qhist, len(o.cells))
	for k, h := range o.cells {
		theirs[k] = h
	}
	o.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, h := range theirs {
		mine := s.cells[k]
		if mine == nil {
			mine = newQhist()
			s.cells[k] = mine
		}
		mine.merge(h)
	}
}

// Table renders the aggregation as a deterministic markdown table, rows
// sorted by (protocol, n, observable): count, mean, p50/p90/p99
// estimates and the exact max.
func (s *QuantileSink) Table() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]quantCell, 0, len(s.cells))
	for k := range s.cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Protocol != keys[j].Protocol {
			return keys[i].Protocol < keys[j].Protocol
		}
		if keys[i].N != keys[j].N {
			return keys[i].N < keys[j].N
		}
		return keys[i].Obs < keys[j].Obs
	})
	var b strings.Builder
	b.WriteString("| protocol | n | observable | count | mean | p50 | p90 | p99 | max |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|\n")
	for _, k := range keys {
		h := s.cells[k]
		p50, _ := h.quantile(0.50)
		p90, _ := h.quantile(0.90)
		p99, _ := h.quantile(0.99)
		fmt.Fprintf(&b, "| %s | %d | %s | %d | %.4g | %.4g | %.4g | %.4g | %.4g |\n",
			k.Protocol, k.N, k.Obs, h.count, h.sum/float64(h.count), p50, p90, p99, h.max)
	}
	return b.String()
}

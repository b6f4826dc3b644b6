package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// epoch anchors nowNS: wall-clock nanoseconds advanced by the monotonic
// clock, so span times never jump with clock adjustments yet line up with
// the wall-clock timestamps the service reports in JobStatus.
var epoch = time.Now()

func nowNS() int64 { return epoch.UnixNano() + int64(time.Since(epoch)) }

// Span is one timed interval at a layer boundary. Its layer is the name's
// prefix before the first dot: "engine.trial" belongs to engine. Spans of
// one request or round share Trace; Parent is the ID of the span that
// caused this one (0 for a root).
type Span struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Layer returns the span's layer.
func (s Span) Layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// Dur returns the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced rounds run the same code with tracing off.
type Tracer struct {
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []Span
}

// NewID allocates a span ID, for spans whose interval is known only later.
func (t *Tracer) NewID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// Begin opens a span at the current time; End records it.
func (t *Tracer) Begin(name string, trace, parent uint64) Span {
	if t == nil {
		return Span{}
	}
	return Span{Name: name, Trace: trace, ID: t.NewID(), Parent: parent, Start: nowNS()}
}

// End closes s at the current time and records it.
func (t *Tracer) End(s Span) {
	if t == nil {
		return
	}
	s.End = nowNS()
	t.Add(s)
}

// Add records a finished span.
func (t *Tracer) Add(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// adopt gives every parentless span named child the innermost span named
// parent whose interval contains it. It links spans recorded where no
// caller context reaches, such as filesystem calls made inside an HTTP
// handler; spans left unmatched stay parentless.
func adopt(spans []Span, child, parent string) {
	for i := range spans {
		c := &spans[i]
		if c.Name != child || c.Parent != 0 {
			continue
		}
		best := -1
		for j, p := range spans {
			if p.Name != parent || p.Start > c.Start || p.End < c.End {
				continue
			}
			if best < 0 || p.Dur() < spans[best].Dur() {
				best = j
			}
		}
		if best >= 0 {
			c.Parent, c.Trace = spans[best].ID, spans[best].Trace
		}
	}
}

// WriteSpans writes spans as JSON lines.
func WriteSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadSpans parses a span file written by WriteSpans.
func ReadSpans(r io.Reader) ([]Span, error) {
	var spans []Span
	dec := json.NewDecoder(r)
	for {
		var s Span
		if err := dec.Decode(&s); err == io.EOF {
			return spans, nil
		} else if err != nil {
			return nil, fmt.Errorf("span %d: %w", len(spans)+1, err)
		}
		spans = append(spans, s)
	}
}

// LayerTime is one layer's share of a traced run.
type LayerTime struct {
	Layer string
	Spans int
	// SelfS sums the layer's span self times: each span's duration minus
	// the parts of its interval its children cover. Spans running
	// concurrently on several goroutines each count in full, so SelfS can
	// exceed the wall time.
	SelfS float64
	// WallS is the layer's share of wall time: every instant is split
	// evenly among the self intervals active at that instant. The WallS of
	// all layers add up to Summary.WallS exactly.
	WallS float64
}

// Summary attributes a traced run's wall time to layers.
type Summary struct {
	// WallS is the measure of the union of the root spans.
	WallS  float64
	Layers []LayerTime // sorted by layer name
}

// Layer returns the named layer's times (zero when it recorded no span).
func (s Summary) Layer(name string) LayerTime {
	for _, l := range s.Layers {
		if l.Layer == name {
			return l
		}
	}
	return LayerTime{Layer: name}
}

type interval struct{ a, b int64 }

// Summarize computes per-layer self times. Every span is first clipped to
// the interval of its root, so time a child spends after its root ended
// (a goroutine outliving the round that started it) is not counted.
// Spans whose parent is missing, or that sit on a parent cycle, count as
// roots.
func Summarize(spans []Span) Summary {
	index := make(map[uint64]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	parent := make([]int, len(spans))
	for i, s := range spans {
		parent[i] = -1
		if p, ok := index[s.Parent]; ok && s.Parent != 0 && p != i {
			parent[i] = p
		}
	}
	root := make([]int, len(spans))
	for i := range spans {
		r, seen := i, map[int]bool{i: true}
		for parent[r] >= 0 && !seen[parent[r]] {
			r = parent[r]
			seen[r] = true
		}
		if parent[r] >= 0 {
			// r sits on a cycle: treat the span itself as a root.
			parent[i], r = -1, i
		}
		root[i] = r
	}
	clip := make([]interval, len(spans))
	for i, s := range spans {
		r := spans[root[i]]
		clip[i] = interval{max(s.Start, r.Start), min(s.End, r.End)}
	}
	children := make([][]int, len(spans))
	var roots []interval
	for i := range spans {
		if parent[i] >= 0 {
			children[parent[i]] = append(children[parent[i]], i)
		} else if clip[i].b > clip[i].a {
			roots = append(roots, clip[i])
		}
	}

	layers := map[string]*LayerTime{}
	type edge struct {
		t     int64
		delta int
		layer string
	}
	var edges []edge
	for i, s := range spans {
		lt := layers[s.Layer()]
		if lt == nil {
			lt = &LayerTime{Layer: s.Layer()}
			layers[s.Layer()] = lt
		}
		lt.Spans++
		var covered []interval
		for _, c := range children[i] {
			covered = append(covered, interval{max(clip[c].a, clip[i].a), min(clip[c].b, clip[i].b)})
		}
		for _, iv := range subtract(clip[i], covered) {
			lt.SelfS += float64(iv.b-iv.a) / 1e9
			edges = append(edges, edge{iv.a, 1, s.Layer()}, edge{iv.b, -1, s.Layer()})
		}
	}

	// Sweep the self intervals in time order, splitting every stretch
	// evenly among the intervals active during it.
	sort.Slice(edges, func(i, j int) bool { return edges[i].t < edges[j].t })
	active := map[string]int{}
	total := 0
	for i := 0; i < len(edges); {
		t := edges[i].t
		for ; i < len(edges) && edges[i].t == t; i++ {
			active[edges[i].layer] += edges[i].delta
			total += edges[i].delta
		}
		if total == 0 || i == len(edges) {
			continue
		}
		dt := float64(edges[i].t - t)
		for layer, n := range active {
			if n > 0 {
				layers[layer].WallS += dt * float64(n) / float64(total) / 1e9
			}
		}
	}

	sum := Summary{}
	for _, iv := range union(roots) {
		sum.WallS += float64(iv.b-iv.a) / 1e9
	}
	for _, lt := range layers {
		sum.Layers = append(sum.Layers, *lt)
	}
	sort.Slice(sum.Layers, func(i, j int) bool { return sum.Layers[i].Layer < sum.Layers[j].Layer })
	return sum
}

// union merges intervals into disjoint, sorted, non-empty ones.
func union(ivs []interval) []interval {
	ivs = append([]interval(nil), ivs...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var out []interval
	for _, iv := range ivs {
		if iv.b <= iv.a {
			continue
		}
		if n := len(out); n > 0 && iv.a <= out[n-1].b {
			out[n-1].b = max(out[n-1].b, iv.b)
			continue
		}
		out = append(out, iv)
	}
	return out
}

// subtract returns the parts of base that no interval in cover overlaps.
func subtract(base interval, cover []interval) []interval {
	var out []interval
	at := base.a
	for _, c := range union(cover) {
		if c.a > at {
			out = append(out, interval{at, min(c.a, base.b)})
		}
		at = max(at, c.b)
		if at >= base.b {
			break
		}
	}
	if at < base.b {
		out = append(out, interval{at, base.b})
	}
	var nonEmpty []interval
	for _, iv := range out {
		if iv.b > iv.a {
			nonEmpty = append(nonEmpty, iv)
		}
	}
	return nonEmpty
}

package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// spanTree is a hand-built round, times in seconds scaled to ns:
//
//	root   bench.round   [0, 100]
//	a      engine.trial  [10, 50]   on one worker
//	a1     probe.observe [20, 25]   inside a
//	b      engine.trial  [30, 70]   on another worker, overlapping a
//	c      sink.record   [60, 120]  a goroutine outliving its parent
//	runner runner.cell   [5, 90]    parent of d and e, which run on other
//	                                goroutines and overlap each other
//	d      engine.trial  [5, 40]
//	e      engine.trial  [20, 95]   ends after its parent
func spanTree() []Span {
	const s = 1e9
	sp := func(name string, id, parent uint64, a, b float64) Span {
		return Span{Name: name, Trace: 1, ID: id, Parent: parent, Start: int64(a * s), End: int64(b * s)}
	}
	return []Span{
		sp("bench.round", 1, 0, 0, 100),
		sp("engine.trial", 2, 1, 10, 50),
		sp("probe.observe", 3, 2, 20, 25),
		sp("engine.trial", 4, 1, 30, 70),
		sp("sink.record", 5, 1, 60, 120),
		// A second root with its own children.
		sp("bench.round", 10, 0, 200, 300),
		sp("runner.cell", 11, 10, 205, 290),
		sp("engine.trial", 12, 11, 205, 240),
		sp("engine.trial", 13, 11, 220, 295),
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestSummarizeSelfTime(t *testing.T) {
	sum := Summarize(spanTree())
	if !near(sum.WallS, 200) {
		t.Fatalf("wall %v, want 200", sum.WallS)
	}
	// Raw self time: each span minus the union of its children, clipped
	// to the root. Round 1: root 100-|[10,100]| = 10; a 40-5 = 35; a1 5;
	// b 40; c clipped to [60,100] = 40. Round 2: root 100-85 = 15;
	// cell 85-|[205,290]| = 0; d 35; e clipped to [220,295] = 75.
	want := map[string]float64{"bench": 25, "engine": 35 + 40 + 35 + 75, "probe": 5, "sink": 40, "runner": 0}
	for layer, w := range want {
		if got := sum.Layer(layer).SelfS; !near(got, w) {
			t.Errorf("%s self %v, want %v", layer, got, w)
		}
	}
	// Wall share, round 1: [0,10] bench; [10,20] a; [20,25] a1; [25,30] a;
	// [30,50] a+b; [50,60] b; [60,70] b+c split; [70,100] c.
	// Round 2: [200,205] bench; [205,220] d; [220,240] d+e; [240,290] e;
	// [290,295] e and the root's own self time split, since e outlives its
	// parent cell and only the cell covers the root; [295,300] bench.
	wantWall := map[string]float64{
		"bench":  10 + 5 + 2.5 + 5,
		"engine": 10 + 5 + 20 + 10 + 5 + 15 + 20 + 50 + 2.5,
		"probe":  5,
		"sink":   5 + 30,
		"runner": 0,
	}
	total := 0.0
	for _, l := range sum.Layers {
		total += l.WallS
		if w, ok := wantWall[l.Layer]; ok && !near(l.WallS, w) {
			t.Errorf("%s wall share %v, want %v", l.Layer, l.WallS, w)
		}
	}
	if !near(total, sum.WallS) {
		t.Errorf("wall shares add up to %v, want the wall %v", total, sum.WallS)
	}
}

func TestSummarizeOrphansAndCycles(t *testing.T) {
	spans := []Span{
		{Name: "bench.round", ID: 1, Start: 0, End: 10},
		{Name: "engine.trial", ID: 2, Parent: 99, Start: 20, End: 30}, // missing parent: a root
		{Name: "sink.record", ID: 3, Parent: 4, Start: 40, End: 50},
		{Name: "sink.record", ID: 4, Parent: 3, Start: 40, End: 50}, // cycle
	}
	sum := Summarize(spans)
	total := 0.0
	for _, l := range sum.Layers {
		total += l.WallS
	}
	if !near(sum.WallS*1e9, 30) || !near(total*1e9, 30) {
		t.Fatalf("wall %v, shares %v; want 30ns each", sum.WallS*1e9, total*1e9)
	}
}

func TestAdoptContainingSpan(t *testing.T) {
	spans := []Span{
		{Name: "fabric.complete.handle", Trace: 7, ID: 1, Start: 0, End: 100},
		{Name: "fabric.complete.handle", Trace: 8, ID: 2, Start: 10, End: 50},
		{Name: "fabric.checkpoint_sync", ID: 3, Start: 20, End: 30},
		{Name: "fabric.checkpoint_sync", ID: 4, Start: 60, End: 70},
		{Name: "fabric.checkpoint_sync", ID: 5, Start: 200, End: 210},
	}
	adopt(spans, "fabric.checkpoint_sync", "fabric.complete.handle")
	if spans[2].Parent != 2 || spans[2].Trace != 8 {
		t.Errorf("innermost container: got parent %d trace %d, want 2 and 8", spans[2].Parent, spans[2].Trace)
	}
	if spans[3].Parent != 1 {
		t.Errorf("outer container: got parent %d, want 1", spans[3].Parent)
	}
	if spans[4].Parent != 0 {
		t.Errorf("no container: got parent %d, want none", spans[4].Parent)
	}
}

func TestSpanFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	want := spanTree()
	if err := WriteSpans(path, want); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadSpans(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d spans, wrote %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

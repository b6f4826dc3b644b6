package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/population"
	"repro/internal/population/tracktest"
	"repro/internal/sched"
	"repro/internal/xrand"
)

// TestSafetySpecExact pins the incremental S_PL tracker to the brute-force
// IsSafe scan: agreement after every single step and identical hitting
// times through the engine run paths, across sizes (including a
// non-power-of-two and the n=64 acceptance size) and adversarial initial
// classes.
func TestSafetySpecExact(t *testing.T) {
	type cse struct {
		n       int
		classes []string
		seeds   []uint64
	}
	cases := []cse{
		{4, []string{"random", "noleader", "allleaders", "corrupted"}, []uint64{1, 2}},
		{16, []string{"random", "noleader", "allleaders", "corrupted"}, []uint64{1, 2}},
		{33, []string{"random", "noleader"}, []uint64{1}},
		{64, []string{"random", "corrupted"}, []uint64{1}},
	}
	for _, c := range cases {
		p := NewParams(c.n)
		pr := New(p)
		for _, class := range c.classes {
			for _, seed := range c.seeds {
				seed, class := seed, class
				t.Run(fmt.Sprintf("n=%d/%s/seed=%d", c.n, class, seed), func(t *testing.T) {
					mk := func() *population.Engine[State] {
						eng := population.NewEngine(population.DirectedRing(p.N), pr.Step, xrand.New(seed))
						eng.SetStates(p.InitConfig(class, seed))
						return eng
					}
					pred := func(cfg []State) bool { return p.IsSafe(cfg) }
					tracktest.Exact(t, mk, p.SafetySpec(), pred, budget(p))
				})
			}
		}
	}
}

// TestSafetySpecOnPerfect pins the tracker's verdict inside S_PL: a
// perfect configuration must be judged converged at step 0 and stay
// converged while the closed set holds.
func TestSafetySpecOnPerfect(t *testing.T) {
	p := NewParams(32)
	pr := New(p)
	eng := population.NewEngine(population.DirectedRing(p.N), pr.Step, xrand.New(5))
	eng.SetStates(p.PerfectConfig(3, 9))
	tr := population.NewRingTracker(p.SafetySpec())
	eng.SetTracker(tr)
	if !tr.Converged() {
		t.Fatal("perfect configuration not judged safe")
	}
	for i := 0; i < 5000; i++ {
		eng.Step()
		if !tr.Converged() {
			t.Fatalf("left the tracked safe set at step %d (closure violated?)", eng.Steps())
		}
	}
}

// twinTracker feeds one engine's Reset/Update stream to two trackers, so
// their verdicts can be compared step by step on the same trajectory.
type twinTracker struct {
	a, b *population.RingTracker[State]
}

func (w twinTracker) Reset(cfg []State)   { w.a.Reset(cfg); w.b.Reset(cfg) }
func (w twinTracker) Update(li, ri int32) { w.a.Update(li, ri); w.b.Update(li, ri) }
func (w twinTracker) Converged() bool     { return w.a.Converged() }

// TestMetaTrackerMatchesClosureTracker pins RingTracker's meta-word path
// (SafetySpec's MetaID, ArcMaskMeta, AgentMaskMeta, ResidualMeta) to its
// closure path (a copy of the spec with the meta hooks nil) after every
// single step: equal Counts, Converged and SampleCounts, through the
// random init, a fault burst installed with SetStates, churn splices that
// shrink and grow the ring (each a full Reset at a new n), and a biased
// hotspot scheduler.
func TestMetaTrackerMatchesClosureTracker(t *testing.T) {
	for _, n := range []int{16, 33} {
		for seed := uint64(1); seed <= 3; seed++ {
			p := NewParams(n)
			plain := p.SafetySpec()
			plain.MetaID, plain.ArcMaskMeta, plain.AgentMaskMeta, plain.ResidualMeta = nil, nil, nil, nil
			meta := population.NewRingTracker(p.SafetySpec())
			closures := population.NewRingTracker(plain)
			eng := population.NewEngine(population.DirectedRing(n), New(p).Step, xrand.New(seed))
			eng.SetStates(p.InitConfig("random", seed))
			eng.SetTracker(twinTracker{meta, closures})
			rng := xrand.New(seed ^ 0xfa17)
			hits := 0
			check := func(phase string, steps int) {
				t.Helper()
				for i := 0; i < steps; i++ {
					eng.Step()
					if meta.Counts() != closures.Counts() {
						t.Fatalf("n=%d seed=%d %s step %d: counts %+v, closures %+v",
							n, seed, phase, eng.Steps(), meta.Counts(), closures.Counts())
					}
					mc, cc := meta.Converged(), closures.Converged()
					if mc != cc {
						t.Fatalf("n=%d seed=%d %s step %d: converged %v, closures %v", n, seed, phase, eng.Steps(), mc, cc)
					}
					if mc {
						hits++
					}
					ms, cs := map[string]float64{}, map[string]float64{}
					meta.SampleCounts(ms)
					closures.SampleCounts(cs)
					if !reflect.DeepEqual(ms, cs) {
						t.Fatalf("n=%d seed=%d %s step %d: samples %v, closures %v", n, seed, phase, eng.Steps(), ms, cs)
					}
				}
			}
			check("random init", 40*n*n)
			cfg := eng.Snapshot()
			for f := 0; f < n/4; f++ {
				j := rng.Intn(len(cfg))
				cfg[j] = p.RandomState(rng)
			}
			eng.SetStates(cfg)
			check("fault burst", 40*n*n)
			cfg = eng.Snapshot()
			eng.SetTopology(population.DirectedRing(len(cfg)-3), cfg[3:])
			check("churn shrink", 10*n*n)
			cfg = eng.Snapshot()
			cfg = append(cfg, p.RandomState(rng), p.RandomState(rng), p.RandomState(rng), p.RandomState(rng))
			eng.SetTopology(population.DirectedRing(len(cfg)), cfg)
			check("churn grow", 10*n*n)
			b, err := sched.NewBiased(sched.HotspotWeights(eng.Arcs(), 2, 8))
			if err != nil {
				t.Fatal(err)
			}
			eng.SetScheduler(b)
			check("hotspot scheduler", 20*n*n)
			if hits == 0 {
				t.Fatalf("n=%d seed=%d: no step converged; the residual paths went unexercised", n, seed)
			}
		}
	}
}

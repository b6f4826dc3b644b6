// Package chenchen implements a knowledge-free SS-LE ring protocol in the
// style of Chen and Chen (2019) — reference [11] of the paper and the
// third row of its Table 1: no assumption, O(1) states, exponential-class
// expected convergence.
//
// The original detects the absence of a leader by searching the ring for a
// cube www, which the cube-free Thue–Morse prefix embedded from a
// surviving leader makes impossible. Implementing that search with O(1)
// states and no oracle is the core of [11] and the source of its
// super-exponential running time.
//
// Reconstruction (documented substitution): we keep the
// protocol's interface — no knowledge of n, O(1) states per agent — but
// replace the cube-free-string machinery with a circumnavigation walker
// serialized by a flag-census oracle (an Ω?-style eventual detector over
// the walker flags, computed by the runner): an anchor flag S is planted
// and a walker token circles clockwise; reaching a leader aborts the
// attempt (a retractor walks back clearing the anchor), while returning to
// an anchor proves the walker crossed every agent without meeting a leader
// — a sound leaderless certificate. Leader multiplicity is resolved by the
// Algorithm 5 war. The serialization oracle stands in for exactly the part
// of [11] whose oracle-free construction costs super-exponential time; the
// row's time class is therefore quoted from the original, not measured
// from this reconstruction (see the E1 section of cmd/sweep).
package chenchen

import (
	"repro/internal/population"
	"repro/internal/war"
	"repro/internal/xrand"
)

// State is the per-agent state: O(1) in n.
type State struct {
	Leader bool
	// Anchor is the S flag: the walker's starting line.
	Anchor bool
	// Walker is the clockwise circumnavigation token.
	Walker bool
	// Retract is the counter-clockwise cleanup token spawned when a walker
	// dies at a leader.
	Retract bool
	// War holds bullet/shield/signalB of the elimination war.
	War war.State
}

// Census is the oracle view: global counts of the three flag kinds,
// maintained by the runner. The zero census (“clean”) licenses a new
// attempt; degenerate mixes trigger orphan cleanup.
type Census struct {
	Anchors    int
	Walkers    int
	Retractors int
}

// Clean reports a flag-free ring.
func (c Census) Clean() bool { return c.Anchors == 0 && c.Walkers == 0 && c.Retractors == 0 }

// Protocol is the reconstruction.
type Protocol struct{}

// New returns the protocol.
func New() *Protocol { return &Protocol{} }

// Step is the transition function under the census view.
func (p *Protocol) Step(l, r State, env Census) (State, State) {
	// Leaders shed stray walker flags: an anchor or walker on a leader is
	// meaningless garbage.
	for _, v := range []*State{&l, &r} {
		if v.Leader {
			v.Anchor, v.Walker, v.Retract = false, false, false
		}
	}
	// Orphan cleanup, licensed by the census: anchors with no walker or
	// retractor in the ring can never be consumed — drop them; likewise
	// lone retractors. A lone walker gets an anchor planted under it so its
	// lap has a finishing line.
	switch {
	case env.Anchors > 0 && env.Walkers == 0 && env.Retractors == 0:
		l.Anchor, r.Anchor = false, false
	case env.Retractors > 0 && env.Walkers == 0 && env.Anchors == 0:
		l.Retract, r.Retract = false, false
	case env.Walkers > 0 && env.Anchors == 0 && env.Retractors == 0:
		if r.Walker {
			r.Anchor = true
		}
	}
	// A clean ring starts a fresh attempt: anchor at the initiator, walker
	// already one step ahead. The first spawn flips the census, so attempts
	// are serialized.
	if env.Clean() && !l.Leader && !r.Leader {
		l.Anchor = true
		r.Walker = true
	}
	// Walker movement (clockwise).
	if l.Walker {
		switch {
		case r.Leader:
			// A leader blocks the lap: the attempt is withdrawn by a
			// retractor that walks back clearing the anchor.
			l.Walker = false
			l.Retract = true
		case r.Anchor:
			// The walker has crossed every agent without meeting a leader:
			// a sound leaderless certificate. Elect here, armed.
			l.Walker = false
			r.Anchor = false
			r.Leader = true
			r.War = war.Arm()
		case r.Walker:
			l.Walker = false // rear walker absorbed
		case r.Retract:
			// A walker and a retractor meeting head-on annihilate; without
			// this, garbage pairs on a leaderless ring would chase each
			// other forever.
			l.Walker = false
			r.Retract = false
		default:
			l.Walker = false
			r.Walker = true
		}
	}
	// Retractor movement (counter-clockwise), clearing flags as it goes.
	if r.Retract {
		switch {
		case l.Leader:
			r.Retract = false // full lap completed
		default:
			if l.Anchor {
				l.Anchor = false
			}
			if l.Walker {
				l.Walker = false // zombie walker cleanup
			}
			r.Retract = false
			l.Retract = true
		}
	}
	war.Step(&l.Leader, &r.Leader, &l.War, &r.War)
	return l, r
}

// IsLeader is the output function.
func IsLeader(s State) bool { return s.Leader }

// Codec is the fixed-width state codec for the interned engine's packed
// interner: the four flag bits, then the four war bits — 8 bits.
func Codec() population.PackedCodec[State] {
	return population.PackedCodec[State]{
		Bits: 4 + war.PackBits,
		Enc: func(s State) uint64 {
			v := war.Pack(s.War) << 4
			if s.Leader {
				v |= 1
			}
			if s.Anchor {
				v |= 1 << 1
			}
			if s.Walker {
				v |= 1 << 2
			}
			if s.Retract {
				v |= 1 << 3
			}
			return v
		},
		Dec: func(v uint64) State {
			return State{
				Leader:  v&1 != 0,
				Anchor:  v&(1<<1) != 0,
				Walker:  v&(1<<2) != 0,
				Retract: v&(1<<3) != 0,
				War:     war.Unpack(v >> 4),
			}
		},
	}
}

// StateCount returns |Q| = 2⁴·12 = 192 — constant in n.
func (p *Protocol) StateCount() uint64 { return 2 * 2 * 2 * 2 * 3 * 2 * 2 }

// RandomState samples uniformly from the state space.
func (p *Protocol) RandomState(rng *xrand.RNG) State {
	return State{
		Leader:  rng.Bool(),
		Anchor:  rng.Bool(),
		Walker:  rng.Bool(),
		Retract: rng.Bool(),
		War: war.State{
			Bullet: war.Bullet(rng.Intn(3)),
			Shield: rng.Bool(),
			Signal: rng.Bool(),
		},
	}
}

// RandomConfig samples a full adversarial configuration.
func (p *Protocol) RandomConfig(rng *xrand.RNG, n int) []State {
	cfg := make([]State, n)
	for i := range cfg {
		cfg[i] = p.RandomState(rng)
	}
	return cfg
}

// Stable reports the absorbing output shape: a unique leader with
// peaceful bullets, and walker flags restricted to the two phases of the
// steady attempt cycle —
//
//	(A) at most one walker with no retractor and any anchor at or behind
//	    the walker (leader-relative), or
//	(B) no walker with at most one retractor,
//
// with at most one anchor either way. Within this set no declaration can
// ever fire, so the leader output never changes; the set is closed under
// the transition (verified exhaustively at n=3 by
// internal/modelcheck.TestChenChenExhaustive, which caught a
// walker-plus-stale-retractor leak in a first, naive version of this
// predicate).
func Stable(cfg []State) bool {
	n := len(cfg)
	k := -1
	anchors, walkers, retractors := 0, 0, 0
	anchorAt, walkerAt := -1, -1
	for i, s := range cfg {
		if s.Leader {
			if k >= 0 {
				return false
			}
			k = i
		}
		if s.Anchor {
			anchors++
			anchorAt = i
		}
		if s.Walker {
			walkers++
			walkerAt = i
		}
		if s.Retract {
			retractors++
		}
	}
	if k < 0 || anchors > 1 {
		return false
	}
	switch {
	case walkers == 0 && retractors <= 1:
		// Phase B: retraction or idle; nothing can declare.
	case walkers == 1 && retractors == 0:
		// Phase A: a lap in progress; the anchor must not lie ahead of the
		// walker on its way to the leader.
		if anchors == 1 {
			pa := ((anchorAt-k)%n + n) % n
			pw := ((walkerAt-k)%n + n) % n
			if pa > pw {
				return false
			}
		}
	default:
		return false
	}
	leaders := make([]bool, n)
	states := make([]war.State, n)
	for i, s := range cfg {
		leaders[i] = s.Leader
		states[i] = s.War
	}
	return war.AllLiveBulletsPeaceful(leaders, states)
}

// Runner couples the protocol with an engine and maintains the census.
type Runner struct {
	proto  *Protocol
	eng    *population.Engine[State]
	census Census
}

// NewRunner builds a runner for a directed ring of n agents.
func NewRunner(n int, rng *xrand.RNG) *Runner {
	ru := &Runner{proto: New()}
	trans := func(l, r State) (State, State) {
		return ru.proto.Step(l, r, ru.census)
	}
	ru.eng = population.NewEngine(population.DirectedRing(n), trans, rng)
	ru.eng.SetObserver(func(_ int, before, after State) {
		ru.census.Anchors += btoi(after.Anchor) - btoi(before.Anchor)
		ru.census.Walkers += btoi(after.Walker) - btoi(before.Walker)
		ru.census.Retractors += btoi(after.Retract) - btoi(before.Retract)
	})
	ru.eng.TrackLeaders(IsLeader)
	return ru
}

// SetStates installs the initial configuration and recounts the census.
func (ru *Runner) SetStates(cfg []State) {
	ru.eng.SetStates(cfg)
	ru.census = Census{}
	for _, s := range cfg {
		ru.census.Anchors += btoi(s.Anchor)
		ru.census.Walkers += btoi(s.Walker)
		ru.census.Retractors += btoi(s.Retract)
	}
}

// Engine exposes the underlying engine.
func (ru *Runner) Engine() *population.Engine[State] { return ru.eng }

// InternEnv adapts the runner's flag census to the interned execution
// layer (population.EnvSpec). The transition reads the census only through
// the sign pattern of its three counters — Clean() and the orphan-cleanup
// guards are all emptiness tests — so eight transition tables cover every
// census view, and per-transition flag-count deltas replace the engine
// observer that maintains the census on the generic path.
func (ru *Runner) InternEnv() *population.EnvSpec[State] {
	return &population.EnvSpec[State]{
		Keys: 8,
		Key: func() uint32 {
			var k uint32
			if ru.census.Anchors > 0 {
				k |= 1
			}
			if ru.census.Walkers > 0 {
				k |= 2
			}
			if ru.census.Retractors > 0 {
				k |= 4
			}
			return k
		},
		Delta: func(lb, rb, la, ra State) uint32 {
			da := btoi(la.Anchor) - btoi(lb.Anchor) + btoi(ra.Anchor) - btoi(rb.Anchor)
			dw := btoi(la.Walker) - btoi(lb.Walker) + btoi(ra.Walker) - btoi(rb.Walker)
			dr := btoi(la.Retract) - btoi(lb.Retract) + btoi(ra.Retract) - btoi(rb.Retract)
			return uint32(da+2) | uint32(dw+2)<<3 | uint32(dr+2)<<6
		},
		Apply: func(d uint32) {
			ru.census.Anchors += int(d&7) - 2
			ru.census.Walkers += int(d>>3&7) - 2
			ru.census.Retractors += int(d>>6&7) - 2
		},
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// StableSpec is the delta-decomposed form of Stable for incremental
// convergence tracking (population.RingTracker). The phase structure of
// the steady attempt cycle is pure counting — leaders, anchors, walkers,
// retractors, live bullets are all O(1) agent counters — and the phase-A
// ordering "the anchor must not lie ahead of the walker" reads the
// tracker's per-channel index sums, which name the unique leader, anchor
// and walker in O(1). The only remaining non-local residual is C_PB war
// peacefulness, scanned solely when live bullets exist and every counter
// already passes — rare before convergence and transient after it. The
// verdict equals Stable at every configuration.
func (p *Protocol) StableSpec() population.RingSpec[State] {
	const (
		agentLeader = 1 << iota
		agentAnchor
		agentWalker
		agentRetract
		agentLiveBullet
	)
	return population.RingSpec[State]{
		AgentMask: func(s State) uint8 {
			var m uint8
			if s.Leader {
				m |= agentLeader
			}
			if s.Anchor {
				m |= agentAnchor
			}
			if s.Walker {
				m |= agentWalker
			}
			if s.Retract {
				m |= agentRetract
			}
			if s.War.Bullet == war.Live {
				m |= agentLiveBullet
			}
			return m
		},
		Gate: func(c *population.LocalCounts) bool {
			if c.Agent[0] != 1 || c.Agent[1] > 1 {
				return false
			}
			walkers, retractors := c.Agent[2], c.Agent[3]
			return (walkers == 1 && retractors == 0) || (walkers == 0 && retractors <= 1)
		},
		Residual: func(c *population.LocalCounts, cfg []State) (bool, population.Witness) {
			n := len(cfg)
			k := c.AgentPos[0] // the unique leader's index
			if c.Agent[2] == 1 && c.Agent[3] == 0 && c.Agent[1] == 1 {
				pa := ((c.AgentPos[1]-k)%n + n) % n // the unique anchor
				pw := ((c.AgentPos[2]-k)%n + n) % n // the unique walker
				if pa > pw {
					// Leader-relative ordering of three single points; it
					// re-evaluates in O(1), so the trivial witness (re-check
					// after every interaction) costs nothing. It lives here
					// rather than in the gate only because it needs n.
					return false, population.WholeRing(n)
				}
			}
			if c.Agent[4] == 0 {
				return true, population.Witness{}
			}
			if ok, off := war.PeacefulPrefix(cfg, k, func(s State) war.State { return s.War }); !ok {
				return false, population.IntervalWitness(n, k, off, k)
			}
			return true, population.Witness{}
		},
		Converged: func(c *population.LocalCounts, cfg []State) bool {
			if c.Agent[0] != 1 || c.Agent[1] > 1 {
				return false
			}
			walkers, retractors := c.Agent[2], c.Agent[3]
			phaseA := walkers == 1 && retractors == 0
			if !phaseA && !(walkers == 0 && retractors <= 1) {
				return false
			}
			n := len(cfg)
			k := c.AgentPos[0] // the unique leader's index
			if phaseA && c.Agent[1] == 1 {
				pa := ((c.AgentPos[1]-k)%n + n) % n // the unique anchor
				pw := ((c.AgentPos[2]-k)%n + n) % n // the unique walker
				if pa > pw {
					return false
				}
			}
			if c.Agent[4] == 0 {
				return true
			}
			return war.PeacefulWithLeader(cfg, k, func(s State) war.State { return s.War })
		},
		AgentNames: []string{"leaders", "anchors", "walkers", "retractors", "live_bullets"},
	}
}

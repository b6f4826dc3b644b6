package population

import "math/bits"

// ConvergenceTracker maintains a convergence predicate incrementally while
// the engine runs. The engine calls Update from applyPair after every
// interaction (O(1) amortized), Reset after a bulk state install, and
// Converged to ask whether the predicate holds at the current step — which
// is what makes hitting times exact instead of quantized to a periodic
// full-configuration scan.
type ConvergenceTracker[S any] interface {
	// Reset recomputes all tracker state from the configuration. The slice
	// is the engine's live backing array: the tracker may retain it and
	// read it on later calls, but must never write to it.
	Reset(cfg []S)
	// Update is called after the interaction on the arc (li, ri) has been
	// applied to the configuration passed to Reset. Both agents' states
	// may have changed; on a ring they are adjacent.
	Update(li, ri int32)
	// Converged reports whether the tracked predicate holds right now. It
	// must be cheap when the answer is "no": RunUntilConverged calls it
	// after every single step.
	Converged() bool
}

// LocalCounts carries, per condition channel, the number of ring locations
// currently matching the channel's condition: Arc[b] counts arcs (i, i+1)
// whose ArcMask has bit b set, Agent[b] counts agents whose AgentMask has
// bit b set. AgentPos[b] is the sum of the indices of the agents matching
// channel b — when Agent[b] == 1 it IS the index of the unique matching
// agent, which lets verdicts locate a unique leader (or walker, or
// anchor) in O(1) instead of scanning the ring. A RingSpec's Converged
// verdict reads these instead of scanning the configuration.
type LocalCounts struct {
	Arc      [8]int
	Agent    [8]int
	AgentPos [8]int
}

// RingSpec is the delta-decomposed form of a convergence predicate on a
// ring: per-adjacent-pair and per-agent conditions whose match counts are
// maintained in O(1) per interaction, plus a verdict that combines them.
// Predicates with a non-local remainder (for example the war peacefulness
// of C_PB, which orders signals against live bullets around the whole
// ring) put the local conditions first as a gate and scan only when every
// cheap condition already holds — which before convergence is rare, so the
// hot path stays scan-free.
type RingSpec[S any] struct {
	// ArcMask returns the condition bits matched by the ordered adjacent
	// pair (l, r) = (agent i, agent i+1 mod n). Nil means no arc
	// conditions.
	ArcMask func(l, r S) uint8
	// AgentMask returns the condition bits matched by a single agent's
	// state. Nil means no agent conditions.
	AgentMask func(s S) uint8
	// Converged decides the predicate from the channel counts. cfg is the
	// live configuration, for verdicts that need a residual scan once the
	// counts pass; implementations must treat it as read-only. Converged
	// must be exact: it returns true at precisely the steps where the
	// protocol's scan predicate would.
	Converged func(c *LocalCounts, cfg []S) bool
	// Gate and Residual, when both non-nil, split Converged for the
	// witness-cached hot path: Gate is the pure counter part of the verdict
	// (O(1), no configuration access) and Residual the non-local remainder,
	// run only once the gate passes. The invariant every spec must uphold is
	//
	//	Converged(c, cfg) == Gate(c) && ok, where ok, _ = Residual(c, cfg)
	//
	// at every reachable configuration. On failure Residual returns a
	// Witness — ring positions its falseness depends on — and the tracker
	// skips re-running the residual until an interaction touches one of
	// them, which keeps hitting times exact while amortizing the residual's
	// scan cost away (for P_PL the local gate is open for most of the long
	// construction phase, so an unconditional per-step residual scan costs
	// O(n) per interaction; witness caching reduces it to O(1) amortized).
	Gate     func(c *LocalCounts) bool
	Residual func(c *LocalCounts, cfg []S) (bool, Witness)
	// MetaID, ArcMaskMeta and ResidualMeta are the optional meta-word
	// acceleration of the spec for the interned engine (interned.go): when
	// MetaID is non-nil, the engine maintains a per-agent slice of
	// MetaID(state) words alongside the configuration and evaluates
	// ArcMaskMeta/ResidualMeta over those words instead of calling the
	// state-level closures — one flat uint64 load per agent instead of a
	// struct read and a closure dispatch, which is what keeps the residual
	// scans of large-state protocols (P_PL) off the interned hot path. The
	// contract is strict equivalence:
	//
	//	ArcMaskMeta(MetaID(l), MetaID(r)) == ArcMask(l, r)
	//	ResidualMeta(c, meta)             == Residual(c, cfg)
	//
	// at every reachable configuration, where meta[i] == MetaID(cfg[i]).
	// The verdicts must match exactly; the Witness on a false verdict must
	// pin a genuinely failing check of THIS configuration (witness caching
	// stays sound under any such choice), though it need not be the same
	// check Residual would witness. ArcMaskMeta and ResidualMeta are each
	// optional on their own; the generic closures serve wherever a meta
	// form is absent. The generic RingTracker ignores all three.
	// ResidualMeta may keep internal memoization (e.g. a last-failing-check
	// hint) as long as its verdict stays exact for ANY meta slice it is
	// handed — engines attached to one shared table set use its one spec
	// instance with different meta slices, so a hint must be advisory,
	// never load-bearing.
	MetaID      func(s S) uint64
	ArcMaskMeta func(l, r uint64) uint8
	// AgentMaskMeta is the meta form of AgentMask, under the same
	// equivalence contract: AgentMaskMeta(MetaID(s)) == AgentMask(s) at
	// every reachable state. The interned engine's mirror refreshes a
	// touched agent's condition bits from the meta word it just wrote
	// instead of loading the per-ID mask table — on O(n)-state protocols
	// that table is hundreds of KB of randomly indexed bytes, so the meta
	// form removes two cache misses per applied interaction.
	AgentMaskMeta func(m uint64) uint8
	// ResidualMeta receives the per-agent meta words: meta[i] is
	// MetaID(cfg[i]) for ring position i.
	ResidualMeta func(c *LocalCounts, meta []uint64) (bool, Witness)
	// ArcNames and AgentNames label the condition channels for
	// diagnostics: entry b names channel bit b of the arc (respectively
	// agent) counts. Named channels are surfaced by SampleCounts as
	// observables of the trial-record pipeline; unnamed channels (an empty
	// string, or a bit beyond the slice) stay internal. Naming a channel
	// changes nothing about tracking itself.
	ArcNames   []string
	AgentNames []string
}

// Witness records why a RingSpec residual failed: the inclusive interval
// [Lo, Hi] of ring positions (wrapping when Lo > Hi) covering every agent
// whose state the failing check read, plus an optional Anchor position the
// check is pinned to (typically the unique leader the scan walks from;
// -1 for none). The contract: as long as no interaction touches a position
// in the interval or the anchor, the residual is guaranteed to keep
// returning false, so the tracker may answer "not converged" without
// re-running it. Any touch of the leader is always observable this way —
// a leader set can only change by flipping some agent's leader bit, which
// touches that agent — so anchoring at the leader keeps leader-relative
// witnesses sound across gate flickers.
type Witness struct {
	Lo, Hi int32
	Anchor int32
}

// WholeRing is the trivial witness: every interaction invalidates it, so
// the residual re-runs on the next verdict — the behavior specs without
// witness support had all along. Residuals that cannot localize their
// failure return it.
func WholeRing(n int) Witness {
	return Witness{Lo: 0, Hi: int32(n - 1), Anchor: -1}
}

// IntervalWitness builds a witness for the wrapped inclusive interval of
// ring positions [lo, lo+span] anchored at anchor, clamping to the whole
// ring when the span covers it.
func IntervalWitness(n, lo, span, anchor int) Witness {
	if span >= n-1 {
		return WholeRing(n)
	}
	lo = mod(lo, n)
	return Witness{Lo: int32(lo), Hi: int32(mod(lo+span, n)), Anchor: int32(anchor)}
}

// contains reports whether ring position i lies in the witness's touch set.
func (w Witness) contains(i, n int) bool {
	if int32(i) == w.Anchor {
		return true
	}
	span := w.Hi - w.Lo
	if span < 0 {
		span += int32(n)
	}
	d := int32(i) - w.Lo
	if d < 0 {
		d += int32(n)
	}
	return d <= span
}

// witnessCache is the residual-witness state shared by the two tracker
// implementations (RingTracker and the interned engine's mirror): while a
// witness is armed and untouched, the residual is known to still fail and
// is not re-run. Keeping the protocol in one place keeps the two hitting-
// time-exact paths in lockstep by construction.
type witnessCache struct {
	armed bool
	dirty bool
	w     Witness
}

func (c *witnessCache) reset() { c.armed = false }

// note marks the cache dirty when either touched agent lies in the armed
// witness's touch set. O(1); called after every interaction.
func (c *witnessCache) note(a, b, n int) {
	if c.armed && !c.dirty && (c.w.contains(a, n) || c.w.contains(b, n)) {
		c.dirty = true
	}
}

// witnessVerdict runs the witness-cached Gate/Residual protocol over the
// current counts and configuration, falling back to the spec's monolithic
// Converged when the split is absent. It is the single copy of the
// exactness-critical caching logic behind both RingTracker.Converged and
// the interned engine's convergedNow (a free function because methods
// cannot introduce type parameters).
func witnessVerdict[S any](c *witnessCache, spec *RingSpec[S], counts *LocalCounts, cfg []S) bool {
	if spec.Gate == nil || spec.Residual == nil {
		return spec.Converged(counts, cfg)
	}
	if !spec.Gate(counts) {
		return false
	}
	if c.armed && !c.dirty {
		return false
	}
	ok, w := spec.Residual(counts, cfg)
	if ok {
		c.armed = false
		return true
	}
	c.armed, c.dirty, c.w = true, false, w
	return false
}

// witnessVerdictMeta is witnessVerdict with the residual evaluated over
// the per-agent meta words through spec.ResidualMeta — same witness-caching
// protocol, same exactness contract, for interned engines whose spec
// carries the meta acceleration. Callers guarantee Gate and ResidualMeta
// are non-nil.
func witnessVerdictMeta[S any](c *witnessCache, spec *RingSpec[S], counts *LocalCounts, meta []uint64) bool {
	if !spec.Gate(counts) {
		return false
	}
	if c.armed && !c.dirty {
		return false
	}
	ok, w := spec.ResidualMeta(counts, meta)
	if ok {
		c.armed = false
		return true
	}
	c.armed, c.dirty, c.w = true, false, w
	return false
}

// CountSampler is the diagnostics face of a tracker: it exports the named
// per-channel match counts so probes can record protocol-shape observables
// (leader counts, live bullets, distance violations, …) without scanning
// the configuration. RingTracker implements it.
type CountSampler interface {
	// SampleCounts writes each named channel's current match count into
	// dst under its name. O(number of named channels).
	SampleCounts(dst map[string]float64)
}

// RingTracker maintains a RingSpec incrementally: per-location condition
// bits plus the per-channel match counts. An interaction touches two
// adjacent agents, so at most two agent masks and four arc masks are
// re-evaluated per Update — O(1) regardless of ring size.
type RingTracker[S any] struct {
	spec      RingSpec[S]
	cfg       []S
	arcBits   []uint8
	agentBits []uint8
	counts    LocalCounts

	// Residual witness cache (see RingSpec.Residual and witnessCache).
	wc witnessCache
}

// NewRingTracker returns a tracker for the spec. It is inert until the
// engine's SetTracker (or a direct Reset) hands it a configuration.
func NewRingTracker[S any](spec RingSpec[S]) *RingTracker[S] {
	if spec.Converged == nil {
		panic("population: RingSpec needs a Converged verdict")
	}
	return &RingTracker[S]{spec: spec}
}

// Counts returns the current per-channel match counts (for tests and
// diagnostics).
func (t *RingTracker[S]) Counts() LocalCounts { return t.counts }

// SampleCounts implements CountSampler over the spec's named channels.
func (t *RingTracker[S]) SampleCounts(dst map[string]float64) {
	for b, name := range t.spec.ArcNames {
		if name != "" {
			dst[name] = float64(t.counts.Arc[b])
		}
	}
	for b, name := range t.spec.AgentNames {
		if name != "" {
			dst[name] = float64(t.counts.Agent[b])
		}
	}
}

// Reset implements ConvergenceTracker.
func (t *RingTracker[S]) Reset(cfg []S) {
	n := len(cfg)
	t.cfg = cfg
	if len(t.arcBits) != n {
		t.arcBits = make([]uint8, n)
		t.agentBits = make([]uint8, n)
	}
	t.counts = LocalCounts{}
	t.wc.reset()
	for i := 0; i < n; i++ {
		var ab, gb uint8
		if t.spec.ArcMask != nil {
			ab = t.spec.ArcMask(cfg[i], cfg[(i+1)%n])
		}
		if t.spec.AgentMask != nil {
			gb = t.spec.AgentMask(cfg[i])
		}
		t.arcBits[i], t.agentBits[i] = ab, gb
		bumpCounts(&t.counts.Arc, 0, ab)
		bumpAgentCounts(&t.counts, 0, gb, i)
	}
}

// Update implements ConvergenceTracker: it re-evaluates the conditions of
// the two touched agents and of the (up to four) arcs incident to them.
func (t *RingTracker[S]) Update(li, ri int32) {
	n := len(t.cfg)
	a, b := int(li), int(ri)
	t.wc.note(a, b, n)
	if t.spec.AgentMask != nil {
		t.refreshAgent(a)
		t.refreshAgent(b)
	}
	if t.spec.ArcMask == nil {
		return
	}
	// Arcs whose pair includes agent a or b: (x-1, x) and (x, x+1).
	idx := [4]int{prev(a, n), a, prev(b, n), b}
	for k, arc := range idx {
		dup := false
		for j := 0; j < k; j++ {
			if idx[j] == arc {
				dup = true
				break
			}
		}
		if !dup {
			t.refreshArc(arc)
		}
	}
}

// Converged implements ConvergenceTracker. Specs that provide the
// Gate/Residual split get the witness-cached path: the O(1) gate runs
// every step, and a failing residual is only re-run after an interaction
// touches its witness; specs without the split pay their full Converged
// verdict every call, exactly as before.
func (t *RingTracker[S]) Converged() bool {
	return witnessVerdict(&t.wc, &t.spec, &t.counts, t.cfg)
}

func (t *RingTracker[S]) refreshAgent(i int) {
	nw := t.spec.AgentMask(t.cfg[i])
	if old := t.agentBits[i]; old != nw {
		t.agentBits[i] = nw
		bumpAgentCounts(&t.counts, old, nw, i)
	}
}

func (t *RingTracker[S]) refreshArc(i int) {
	nw := t.spec.ArcMask(t.cfg[i], t.cfg[(i+1)%len(t.cfg)])
	if old := t.arcBits[i]; old != nw {
		t.arcBits[i] = nw
		bumpCounts(&t.counts.Arc, old, nw)
	}
}

// bumpCounts applies the old→new bit delta to the per-channel counts.
func bumpCounts(counts *[8]int, old, nw uint8) {
	for diff := old ^ nw; diff != 0; diff &= diff - 1 {
		b := bits.TrailingZeros8(diff)
		if nw&(1<<b) != 0 {
			counts[b]++
		} else {
			counts[b]--
		}
	}
}

// bumpAgentCounts applies the old→new bit delta of agent idx to the agent
// channel counts and index sums.
func bumpAgentCounts(c *LocalCounts, old, nw uint8, idx int) {
	for diff := old ^ nw; diff != 0; diff &= diff - 1 {
		b := bits.TrailingZeros8(diff)
		if nw&(1<<b) != 0 {
			c.Agent[b]++
			c.AgentPos[b] += idx
		} else {
			c.Agent[b]--
			c.AgentPos[b] -= idx
		}
	}
}

func prev(i, n int) int {
	if i == 0 {
		return n - 1
	}
	return i - 1
}

package population

// This file holds the state-interning primitives of the table-lookup
// execution layer (see interned.go): a dynamic state interner and a tiered
// pair table. Memoizing the pairwise transition per (state, state) pair
// and replaying it as table loads amortizes the branchy transition cascade
// away only where the reachable states are few compared with the
// interactions executed — the O(1)- and O(n)-state baselines. P_PL's
// polylog(n) count is a Θ(ψ⁸) product of module states: a fresh trial
// meets a never-seen pair on a fifth to two fifths of its steps, so it
// runs on the generic engine instead.

// PackedCodec encodes a protocol's state into a fixed-width integer. The
// contract is a bijection between reachable states and their packed forms:
// Enc must be injective over every state the protocol can reach (so two
// distinct states never collide in the packed key space — the property the
// round-trip and collision tests pin per protocol) and Dec(Enc(s)) == s.
// Bits is the width of the packed form; it must be at most 63, because the
// interner reserves the all-ones word as its empty-slot sentinel. A spec
// package whose state cannot fit 63 bits returns no codec and the interner
// falls back to its generic map-keyed mode.
type PackedCodec[S any] struct {
	// Bits is the packed width: Enc(s) < 1<<Bits for every reachable s.
	Bits int
	// Enc packs a state; injective over reachable states.
	Enc func(S) uint64
	// Dec unpacks; Dec(Enc(s)) == s for every reachable s.
	Dec func(uint64) S
}

// Interner assigns dense uint32 IDs to distinct states in order of first
// appearance. It is capacity-capped: protocols whose executions wander
// through more distinct states than the cap make Intern report failure,
// and the interned engine falls back to the generic path instead of
// growing tables without bound.
//
// With a PackedCodec the interner keys an open-addressed power-of-two
// table by the fixed-width packed form — one multiplicative hash and a
// linear probe over a flat uint64 array, no runtime map hashing of the
// state struct — and additionally records each ID's packed form. Without
// one it falls back to a Go map keyed by the state value.
type Interner[S comparable] struct {
	ids map[S]uint32 // generic mode; nil in packed mode

	// Packed mode: tkeys[i] is the packed state of the ID in slot i
	// (emptyKey when free), tids[i] that ID. packed[id] is the packed form
	// of id, in mint order — the codec-level mirror of vals.
	enc    func(S) uint64
	tkeys  []uint64
	tids   []uint32
	packed []uint64

	vals []S
	max  int
}

// NewInterner returns an interner capped at max distinct states, keyed by
// a Go map over the state value.
func NewInterner[S comparable](max int) *Interner[S] {
	return &Interner[S]{ids: make(map[S]uint32), max: max}
}

// NewPackedInterner returns an interner capped at max distinct states,
// keyed by codec.Enc through an open-addressed table. It panics when the
// codec's width collides with the empty-slot sentinel.
func NewPackedInterner[S comparable](codec PackedCodec[S], max int) *Interner[S] {
	if codec.Enc == nil || codec.Bits < 1 || codec.Bits > 63 {
		panic("population: PackedCodec needs Enc and 1 <= Bits <= 63")
	}
	in := &Interner[S]{enc: codec.Enc, max: max}
	in.growPacked(1024)
	return in
}

// Intern returns the dense ID of s, minting one on first sight. ok is
// false when minting would exceed the cap; the interner is unchanged in
// that case.
func (in *Interner[S]) Intern(s S) (uint32, bool) {
	if in.ids == nil {
		return in.internPacked(in.enc(s), s)
	}
	if id, ok := in.ids[s]; ok {
		return id, true
	}
	if len(in.vals) >= in.max {
		return 0, false
	}
	id := uint32(len(in.vals))
	in.ids[s] = id
	in.vals = append(in.vals, s)
	return id, true
}

// internPacked is the packed-mode Intern: probe the open table for key,
// minting a fresh ID into the first empty slot on a miss.
func (in *Interner[S]) internPacked(key uint64, s S) (uint32, bool) {
	mask := uint64(len(in.tkeys) - 1)
	i := pairHash(key) & mask
	for {
		switch in.tkeys[i] {
		case key:
			return in.tids[i], true
		case emptyKey:
			if len(in.vals) >= in.max {
				return 0, false
			}
			id := uint32(len(in.vals))
			in.vals = append(in.vals, s)
			in.packed = append(in.packed, key)
			in.tkeys[i], in.tids[i] = key, id
			if (len(in.vals)+1)*4 > len(in.tkeys)*3 {
				in.growPacked(len(in.tkeys) * 2)
			}
			return id, true
		}
		i = (i + 1) & mask
	}
}

// growPacked re-lays the packed-mode table out at the given power-of-two
// capacity, reinserting every minted ID.
func (in *Interner[S]) growPacked(cap int) {
	in.tkeys = make([]uint64, cap)
	in.tids = make([]uint32, cap)
	for i := range in.tkeys {
		in.tkeys[i] = emptyKey
	}
	mask := uint64(cap - 1)
	for id, key := range in.packed {
		i := pairHash(key) & mask
		for in.tkeys[i] != emptyKey {
			i = (i + 1) & mask
		}
		in.tkeys[i], in.tids[i] = key, uint32(id)
	}
}

// Packed returns the packed form of the state with the given ID. Valid in
// packed mode only.
func (in *Interner[S]) Packed(id uint32) uint64 { return in.packed[id] }

// Value returns the state with the given ID.
func (in *Interner[S]) Value(id uint32) S { return in.vals[id] }

// Len returns the number of distinct states interned so far.
func (in *Interner[S]) Len() int { return len(in.vals) }

// Cap returns the capacity cap.
func (in *Interner[S]) Cap() int { return in.max }

// pairTable memoizes a uint64 per ordered ID pair with two tiers. While
// the interner holds at most denseMax states it is a dense stride×stride
// array — a lookup is literally one multiply and one load — growing its
// stride by re-layout as IDs are minted. Beyond denseMax it migrates to an
// open-addressing hash table (power-of-two capacity, multiplicative
// hashing, linear probing), whose memory tracks the pairs actually seen
// instead of the square of the state count. Values use bit 63 as the
// present flag, so a zero dense cell and an empty hash slot both read as a
// miss.
type pairTable struct {
	denseMax int
	stride   int // dense tier: current stride (power of two); 0 once hashed
	dense    []uint64
	// Hashed tier: slot i is the adjacent word pair slab[2i] (the packed
	// l<<32|r key, emptyKey when free) and slab[2i+1] (the value), so one
	// cache line serves both the probe compare and the hit load — the
	// table far outgrows cache on O(n)-state protocols, where split
	// key/value arrays would cost two DRAM misses per lookup.
	slab  []uint64
	slots int // len(slab)/2, a power of two
	used  int
	// front is a direct-mapped cache over the hashed tier (key/value word
	// pairs, frontSlots entries). The slab on a large-state protocol is
	// tens of MB of DRAM, but the pair stream is temporally clustered, so
	// a small always-in-cache front table absorbs most probes. Entries
	// are immutable once memoized, so the front needs no invalidation.
	front []uint64
	// pfSink absorbs prefetch loads so they cannot be dead-code-eliminated.
	pfSink uint64
}

// frontSlots sizes the front cache: 1<<17 slots × 16 B = 2 MiB, small
// enough to stay cache-resident yet wide enough that the hot pair set of
// an O(n)-state protocol at n=1024 mostly fits (halving it measurably
// raises the slab-miss rate on the ppl benchmark, and a two-way
// set-associative variant measured no better than this direct map).
const frontSlots = 1 << 17

const (
	pairPresent = uint64(1) << 63
	emptyKey    = ^uint64(0) // unreachable: IDs are far below 1<<32
)

// newPairTable returns a table that stays dense while the interner holds
// at most denseMax states.
func newPairTable(denseMax int) pairTable {
	return pairTable{denseMax: denseMax}
}

// get returns the memoized value for (l, r), if present. The interned hot
// loop (applyInterned) inlines the hashed tier's front-cache fast path by
// hand and calls getHashed directly on a front miss; this method is the
// complete lookup for every other caller.
func (t *pairTable) get(l, r uint32) (uint64, bool) {
	if t.stride != 0 || t.slab == nil {
		if int(l) >= t.stride || int(r) >= t.stride {
			return 0, false
		}
		v := t.dense[int(l)*t.stride+int(r)]
		return v, v&pairPresent != 0
	}
	key := uint64(l)<<32 | uint64(r)
	h := pairHash(key)
	if ci := 2 * (h & (frontSlots - 1)); t.front[ci] == key {
		return t.front[ci+1], true
	}
	return t.getHashed(key, h)
}

// getHashed is the front-miss path: probe the hashed tier and install any
// hit into the front cache slot the key maps to.
func (t *pairTable) getHashed(key, h uint64) (uint64, bool) {
	mask := uint64(t.slots - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		switch t.slab[2*i] {
		case key:
			v := t.slab[2*i+1]
			ci := 2 * (h & (frontSlots - 1))
			t.front[ci] = key
			t.front[ci+1] = v
			return v, true
		case emptyKey:
			return 0, false
		}
	}
}

// prefetch pulls the lookup path of (l, r) toward the cache by issuing its
// loads early, discarding values into a sink the compiler cannot eliminate.
// It probes the front cache first — warming that line is enough when the
// entry is already front-resident, and touching the slab too would evict
// useful lines for nothing — and falls through to the slab home line only
// on a front miss, mirroring exactly the lines get will need. A no-op on
// the dense tier, which is small enough to stay cached.
func (t *pairTable) prefetch(l, r uint32) {
	if t.slab == nil {
		return
	}
	key := uint64(l)<<32 | uint64(r)
	h := pairHash(key)
	if t.front[2*(h&(frontSlots-1))] == key {
		return
	}
	t.pfSink = t.slab[2*(h&uint64(t.slots-1))]
}

// pairHash mixes both halves of the packed pair key down into the low bits
// the power-of-two mask keeps (the low half of a product depends only on
// the low half of the key, which would make every pair with the same right
// ID collide).
func pairHash(key uint64) uint64 {
	h := key * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// put memoizes v for (l, r). nStates is the interner's current size; it
// drives dense growth and the dense→hashed migration. v must not have bit
// 63 set — put owns the present flag.
func (t *pairTable) put(l, r uint32, v uint64, nStates int) {
	v |= pairPresent
	if t.slab == nil {
		if nStates <= t.denseMax {
			if need := max(int(l), int(r)) + 1; need > t.stride || t.stride == 0 {
				t.growDense(nStates)
			}
			t.dense[int(l)*t.stride+int(r)] = v
			t.used++
			return
		}
		t.migrate()
	}
	if t.used >= t.slots*3/4 {
		t.growHash(t.slots * 2)
	}
	key := uint64(l)<<32 | uint64(r)
	t.insertHash(key, v)
	ci := 2 * (pairHash(key) & (frontSlots - 1))
	t.front[ci] = key
	t.front[ci+1] = v
	t.used++
}

// growDense re-lays the dense tier out at the next power-of-two stride
// covering nStates IDs.
func (t *pairTable) growDense(nStates int) {
	stride := 16
	for stride < nStates {
		stride *= 2
	}
	if stride <= t.stride {
		return
	}
	dense := make([]uint64, stride*stride)
	for l := 0; l < t.stride; l++ {
		copy(dense[l*stride:l*stride+t.stride], t.dense[l*t.stride:(l+1)*t.stride])
	}
	t.dense, t.stride = dense, stride
}

// migrate moves every dense entry into a fresh hash tier.
func (t *pairTable) migrate() {
	cap := 1024
	for cap < t.used*2 {
		cap *= 2
	}
	t.allocSlab(cap)
	for l := 0; l < t.stride; l++ {
		for r := 0; r < t.stride; r++ {
			if v := t.dense[l*t.stride+r]; v&pairPresent != 0 {
				t.insertHash(uint64(l)<<32|uint64(r), v)
			}
		}
	}
	t.dense, t.stride = nil, 0
}

func (t *pairTable) growHash(cap int) {
	old := t.slab
	t.allocSlab(cap)
	for i := 0; i+1 < len(old); i += 2 {
		if k := old[i]; k != emptyKey {
			t.insertHash(k, old[i+1])
		}
	}
}

func (t *pairTable) allocSlab(cap int) {
	t.slab = make([]uint64, 2*cap)
	t.slots = cap
	for i := 0; i < cap; i++ {
		t.slab[2*i] = emptyKey
	}
	if t.front == nil {
		t.front = make([]uint64, 2*frontSlots)
		for i := 0; i < frontSlots; i++ {
			t.front[2*i] = emptyKey
		}
	}
}

func (t *pairTable) insertHash(key, v uint64) {
	mask := uint64(t.slots - 1)
	for i := pairHash(key) & mask; ; i = (i + 1) & mask {
		if k := t.slab[2*i]; k == emptyKey || k == key {
			t.slab[2*i] = key
			t.slab[2*i+1] = v
			return
		}
	}
}

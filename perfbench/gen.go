package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro"
	"repro/internal/plan"
	"repro/internal/xrand"
)

// Inputs is everything a workload feeds the program, drawn from the
// workload seed alone. Trial seeds stay TrialSeed(n, t); the seed varies
// the work through ring sizes and job mixes.
type Inputs struct {
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	PPL      *PPLInputs     `json:"ppl,omitempty"`
	Service  *ServiceInputs `json:"service,omitempty"`
	Fabric   *FabricInputs  `json:"fabric,omitempty"`
}

// PPLInputs is one ppl-sweep round: an Experiment of P_PL from the random
// init over three ring sizes.
type PPLInputs struct {
	Sizes  []int `json:"sizes"`
	Trials int   `json:"trials"`
}

// ServiceInputs is one service-mix round: the jobs the clients submit, in
// order, and the cell cache bound.
type ServiceInputs struct {
	Jobs       []plan.Spec `json:"jobs"`
	CacheBytes int64       `json:"cache_bytes"`
}

// FabricInputs is one fabric-shards sweep.
type FabricInputs struct {
	Spec        plan.Spec `json:"spec"`
	ShardTrials int       `json:"shard_trials"`
}

// Workload sizing. Ring sizes come from narrow bands so that a seed moves
// the work by a few percent, not the throughput the benchmark gates on.
// A band never crosses a power of two: P_PL's ψ is ⌈log₂ n⌉ plus a slack,
// so a band straddling 2^k would switch the protocol's parameters, and
// its convergence time, with the seed.
const (
	pplTrials = 16 // trials per ppl-sweep cell

	serviceJobs   = 200 // jobs per service-mix round
	serviceTrials = 3   // trials per service-mix cell
	// serviceCacheBytes bounds the service cell cache below the distinct
	// cell bytes of a round (about 450 kB), so evicted cells spill and
	// some hits come back from disk.
	serviceCacheBytes = 256 << 10

	fabricTrials      = 24  // trials per fabric-shards cell
	fabricShardTrials = 3   // trials per shard
	fabricYokotaMax   = 100 // largest yokota size in the fabric sweep
)

var (
	pplBands = []int{128, 256, 512}
	// fabricBands are the fabric sweep's sizes; yokota stops at the middle
	// one (fabricYokotaMax), so the five cells' shard latencies sit in
	// five clusters and the median falls inside one, not between two.
	fabricBands = []int{48, 96, 144}
	// serviceSizes is the [lo, hi] ring-size range per protocol, all at
	// most 64; the cubic-time angluin baseline stays smaller.
	serviceSizes = map[string][2]int{
		"ppl":      {16, 48},
		"yokota":   {16, 64},
		"angluin":  {8, 28},
		"fj":       {16, 64},
		"chenchen": {8, 40},
		"orient":   {16, 64},
	}
	serviceProtocols = []string{"ppl", "yokota", "angluin", "fj", "chenchen", "orient"}
)

// workloadSalt separates the workloads' random streams for one seed.
var workloadSalt = map[string]uint64{
	"ppl-sweep":     0x9e3779b97f4a7c15,
	"service-mix":   0xbf58476d1ce4e5b9,
	"fabric-shards": 0x94d049bb133111eb,
}

// Generate draws the inputs of workload from seed.
func Generate(workload string, seed uint64) (Inputs, error) {
	salt, ok := workloadSalt[workload]
	if !ok {
		return Inputs{}, fmt.Errorf("unknown workload %q (ppl-sweep, service-mix, fabric-shards)", workload)
	}
	rng := xrand.New(seed ^ salt)
	in := Inputs{Workload: workload, Seed: seed}
	switch workload {
	case "ppl-sweep":
		in.PPL = &PPLInputs{Sizes: bandSizes(rng, pplBands), Trials: pplTrials}
	case "service-mix":
		in.Service = &ServiceInputs{Jobs: serviceMix(rng), CacheBytes: serviceCacheBytes}
	case "fabric-shards":
		in.Fabric = &FabricInputs{
			Spec: plan.Spec{
				Protocols: []string{"ppl", "yokota"},
				Sizes:     bandSizes(rng, fabricBands),
				Trials:    fabricTrials,
				MaxSize:   map[string]int{"yokota": fabricYokotaMax},
			},
			ShardTrials: fabricShardTrials,
		}
	}
	return in, nil
}

// bandSizes draws one size from each band (c − c/32, c].
func bandSizes(rng *xrand.RNG, centers []int) []int {
	sizes := make([]int, len(centers))
	for i, c := range centers {
		sizes[i] = c - rng.Intn(c/32)
	}
	return sizes
}

// serviceMix draws one round's jobs. Slot i runs protocol
// serviceProtocols[i%6], so every round has the same protocol mix, and
// each protocol deals its sizes from a seed-shuffled deck of its ring
// sizes, so every round runs nearly the same cells in a seed-drawn
// order. Every fourth job repeats an earlier spec of its protocol exactly
// (a warm job once the earlier one ran), the next shares a cell with one,
// and the rest are fresh, alternating one and two sizes.
//
// The sizes of a job are distinct after FixSize: a job whose sizes
// collide fails its JSON report, because the exponent fit over two cells
// of one ring size is NaN.
func serviceMix(rng *xrand.RNG) []plan.Spec {
	decks := map[string]*deck{}
	for _, p := range serviceProtocols {
		decks[p] = newDeck(rng, p)
	}
	jobs := make([]plan.Spec, 0, serviceJobs)
	byProto := map[string][]int{}
	for i := 0; i < serviceJobs; i++ {
		proto := serviceProtocols[i%len(serviceProtocols)]
		d, earlier := decks[proto], byProto[proto]
		spec := plan.Spec{Protocols: []string{proto}, Trials: serviceTrials}
		switch {
		case i%4 == 0 && len(earlier) > 0:
			spec = jobs[earlier[rng.Intn(len(earlier))]]
		case i%4 == 1 && len(earlier) > 0:
			prev := jobs[earlier[rng.Intn(len(earlier))]]
			shared := prev.Sizes[rng.Intn(len(prev.Sizes))]
			spec.Sizes = []int{shared, d.next(shared)}
		default:
			spec.Sizes = []int{d.next(0)}
			if i%2 == 1 {
				spec.Sizes = append(spec.Sizes, d.next(spec.Sizes[0]))
			}
		}
		jobs = append(jobs, spec)
		byProto[proto] = append(byProto[proto], i)
	}
	return jobs
}

// deck deals one protocol's ring sizes (FixSize-distinct, within its
// serviceSizes range) in shuffled order, reshuffling when exhausted.
type deck struct {
	rng   *xrand.RNG
	sizes []int
	pos   int
}

func newDeck(rng *xrand.RNG, proto string) *deck {
	d := &deck{rng: rng}
	p, err := repro.NewProtocol(proto)
	if err != nil {
		panic(err) // serviceProtocols names registered protocols
	}
	seen := map[int]bool{}
	r := serviceSizes[proto]
	for n := r[0]; n <= r[1]; n++ {
		if f := p.FixSize(n); !seen[f] {
			seen[f] = true
			d.sizes = append(d.sizes, f)
		}
	}
	d.pos = len(d.sizes)
	return d
}

// next deals the next size other than not.
func (d *deck) next(not int) int {
	for {
		if d.pos == len(d.sizes) {
			for i := len(d.sizes) - 1; i > 0; i-- {
				j := d.rng.Intn(i + 1)
				d.sizes[i], d.sizes[j] = d.sizes[j], d.sizes[i]
			}
			d.pos = 0
		}
		n := d.sizes[d.pos]
		d.pos++
		if n != not {
			return n
		}
	}
}

// Digest is the SHA-256 of the inputs' canonical JSON.
func (in Inputs) Digest() (string, error) {
	data, err := json.Marshal(in)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

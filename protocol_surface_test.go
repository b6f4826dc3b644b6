package repro_test

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro"
)

// surfaceSizes are the ring sizes the protocol-surface golden evaluates
// States, FixSize and MaxSteps at: the smallest rings, odd and even
// neighbours (angluin bumps even sizes), and a large power of two.
var surfaceSizes = []int{2, 3, 8, 9, 16, 64, 1024}

type surfaceSize struct {
	N        int    `json:"n"`
	States   uint64 `json:"states"`
	FixSize  int    `json:"fix_size"`
	MaxSteps uint64 `json:"max_steps"`
}

type surfaceEntry struct {
	Name  string             `json:"name"`
	Info  repro.ProtocolInfo `json:"info"`
	Sizes []surfaceSize      `json:"sizes"`
	// Validate maps "topology/init/churn" to "accept" or "reject".
	Validate map[string]string `json:"validate"`
}

// TestProtocolSurfaceGolden pins the whole public surface of every
// built-in protocol — Table 1 metadata, the size rules, and which
// (topology, init class, churn) scenarios Validate admits — so the
// adapter wiring can be restructured without any observable drift.
// Regenerate with `go test -run TestProtocolSurfaceGolden -update .`.
func TestProtocolSurfaceGolden(t *testing.T) {
	topologies := []repro.Topology{repro.TopologyDefault, repro.TopologyDirectedRing, repro.TopologyUndirectedRing}
	inits := []repro.InitClass{repro.InitRandom, repro.InitNoLeader, repro.InitAllLeaders, repro.InitCorrupted, repro.InitNoLeaderCold}
	churn := &repro.SchedulerSpec{Churn: []repro.ChurnEvent{{AtStep: 100, Remove: 1, Insert: 1}}}

	var out []surfaceEntry
	for _, name := range []string{"ppl", "orient", "yokota", "angluin", "fj", "chenchen"} {
		p, err := repro.NewProtocol(name)
		if err != nil {
			t.Fatal(err)
		}
		e := surfaceEntry{Name: name, Info: p.Info(), Validate: map[string]string{}}
		for _, n := range surfaceSizes {
			e.Sizes = append(e.Sizes, surfaceSize{N: n, States: p.States(n), FixSize: p.FixSize(n), MaxSteps: p.MaxSteps(n)})
		}
		for _, topo := range topologies {
			for _, init := range inits {
				for _, withChurn := range []bool{false, true} {
					sc := repro.Scenario{Topology: topo, Init: init}
					if withChurn {
						sc.Sched = churn
					}
					verdict := "accept"
					if p.Validate(sc) != nil {
						verdict = "reject"
					}
					e.Validate[fmt.Sprintf("%v/%v/churn=%v", topo, init, withChurn)] = verdict
				}
			}
		}
		out = append(out, e)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "protocol_surface.json", append(data, '\n'))
}

package main

import (
	"encoding/json"
	"testing"

	"repro"
)

func TestGenerateDeterministic(t *testing.T) {
	for _, w := range []string{"ppl-sweep", "service-mix", "fabric-shards"} {
		a, err := Generate(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := Generate(w, 7)
		c, _ := Generate(w, 8)
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		jc, _ := json.Marshal(c)
		if string(ja) != string(jb) {
			t.Errorf("%s: seed 7 generated different inputs twice", w)
		}
		// The seed field alone differs between a and c; compare the
		// inputs without it.
		a.Seed, c.Seed = 0, 0
		ja, _ = json.Marshal(a)
		jc, _ = json.Marshal(c)
		if string(ja) == string(jc) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", w)
		}
		da, _ := a.Digest()
		dc, _ := c.Digest()
		if da == dc {
			t.Errorf("%s: seeds 7 and 8 share an inputs digest", w)
		}
	}
}

func TestServiceMixShape(t *testing.T) {
	in, err := Generate("service-mix", 3)
	if err != nil {
		t.Fatal(err)
	}
	jobs := in.Service.Jobs
	if len(jobs) != serviceJobs {
		t.Fatalf("%d jobs, want %d", len(jobs), serviceJobs)
	}
	protos := map[string]bool{}
	repeats := 0
	seen := map[string]bool{}
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			t.Fatalf("invalid job %+v: %v", j, err)
		}
		for _, n := range j.Sizes {
			if n > 64 {
				t.Errorf("job %+v: size above 64", j)
			}
		}
		p, _ := repro.NewProtocol(j.Protocols[0])
		fixed := map[int]bool{}
		for _, n := range j.Sizes {
			if fixed[p.FixSize(n)] {
				t.Errorf("job %+v: two sizes run at ring size %d", j, p.FixSize(n))
			}
			fixed[p.FixSize(n)] = true
		}
		protos[j.Protocols[0]] = true
		key, _ := json.Marshal(j)
		if seen[string(key)] {
			repeats++
		}
		seen[string(key)] = true
	}
	if len(protos) != len(serviceProtocols) {
		t.Errorf("mix covers %d protocols, want %d", len(protos), len(serviceProtocols))
	}
	if repeats < serviceJobs/4-1 {
		t.Errorf("%d repeated specs, want at least %d", repeats, serviceJobs/4-1)
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := Generate("nope", 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

package main

import (
	"fmt"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs need not be sorted. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

// beyond counts the samples strictly above v.
func beyond(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// tail is a latency tail: the highest quantile with at least ten samples
// beyond it. A run's sample count varies with its speed, and a quantile
// chosen from it would move whenever the speed does; so the level is
// fixed per workload from the fewest samples any run takes (its minimum
// rounds times the samples in a round), and every run reports that level.
type tail struct {
	Level   float64 `json:"level"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
	Beyond  int     `json:"beyond"`
}

func tailOf(xs []float64, minSamples int) tail {
	level := max(0, 1-10/float64(minSamples))
	v := quantile(xs, level)
	return tail{Level: level, Value: v, Samples: len(xs), Beyond: beyond(xs, v)}
}

func (t tail) String() string {
	return fmt.Sprintf("p%.2f of %d samples (%d beyond)", 100*t.Level, t.Samples, t.Beyond)
}

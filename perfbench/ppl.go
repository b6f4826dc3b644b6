package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"repro"
)

// pplMinRounds: every run repeats the Experiment at least twice, so the
// record stream's digest is compared across repeats.
const pplMinRounds = 2

// trialKey identifies a trial inside one Experiment.
type trialKey struct {
	n    int
	seed uint64
}

// trialClock keeps each trial's start time until its record reaches the
// sink; the difference is the trial's latency.
type trialClock struct {
	mu      sync.Mutex
	start   map[trialKey]int64
	latency []float64 // ms
}

func (c *trialClock) begin(k trialKey) {
	c.mu.Lock()
	c.start[k] = nowNS()
	c.mu.Unlock()
}

func (c *trialClock) delivered(k trialKey) {
	t := nowNS()
	c.mu.Lock()
	if s, ok := c.start[k]; ok {
		c.latency = append(c.latency, float64(t-s)/1e6)
		delete(c.start, k)
	}
	c.mu.Unlock()
}

// clockProbe only stamps the trial start: the untraced rounds' probe.
type clockProbe struct{ clock *trialClock }

func (p clockProbe) Begin(_ string, n int, seed uint64) { p.clock.begin(trialKey{n, seed}) }
func (p clockProbe) Observe(repro.TrialEvent)           {}
func (p clockProbe) End(repro.TrialResult)              {}

// tracingProbe records the trial as an engine span and times the probe
// layer's work: it forwards every event to a RecordingProbe of its own,
// timing each call as a probe span.
type tracingProbe struct {
	clockProbe
	tr     *Tracer
	trace  uint64
	cells  map[int]uint64
	inner  repro.RecordingProbe
	trial  Span
	events *atomic.Int64
}

func (p *tracingProbe) Begin(protocol string, n int, seed uint64) {
	p.clockProbe.Begin(protocol, n, seed)
	p.trial = p.tr.Begin("engine.trial", p.trace, p.cells[n])
	sp := p.tr.Begin("probe.begin", p.trace, p.trial.ID)
	p.inner.Begin(protocol, n, seed)
	p.tr.End(sp)
}

func (p *tracingProbe) Observe(ev repro.TrialEvent) {
	sp := p.tr.Begin("probe.observe", p.trace, p.trial.ID)
	p.inner.Observe(ev)
	p.tr.End(sp)
	p.events.Add(1)
}

func (p *tracingProbe) End(res repro.TrialResult) {
	sp := p.tr.Begin("probe.end", p.trace, p.trial.ID)
	p.inner.End(res)
	p.tr.End(sp)
	p.tr.End(p.trial)
}

// timedSink wraps the JSONL sink: it marks each record's delivery and, in
// traced rounds, records a sink span per call.
type timedSink struct {
	inner repro.Sink
	clock *trialClock
	tr    *Tracer
	trace uint64
	cells map[int]uint64
}

func (s *timedSink) Record(rec repro.TrialRecord) error {
	sp := s.tr.Begin("sink.record", s.trace, s.cells[rec.N])
	err := s.inner.Record(rec)
	s.tr.End(sp)
	s.clock.delivered(trialKey{rec.N, rec.Seed})
	return err
}

func (s *timedSink) Close() error {
	sp := s.tr.Begin("sink.close", s.trace, s.cells[0])
	err := s.inner.Close()
	s.tr.End(sp)
	return err
}

func pplExperiment(in *PPLInputs, workers int) *repro.Experiment {
	return repro.NewExperiment().ProtocolNames("ppl").Sizes(in.Sizes...).Trials(in.Trials).Workers(workers)
}

// runPPL runs the ppl-sweep workload: a library Experiment of P_PL from
// the random init, records streaming to a JSONL file as cmd/sweep -record
// does, ending with the rendered Report.
func runPPL(e *env, in *PPLInputs) (*outcome, error) {
	o := newOutcome()
	perRound := len(in.Sizes) * in.Trials

	err := timeSetup(o, func(i int) (float64, func() error, error) {
		path := filepath.Join(e.work, fmt.Sprintf("setup-%d.jsonl", i))
		t0 := nowNS()
		sink, err := repro.CreateJSONL(path)
		if err != nil {
			return 0, nil, err
		}
		exp := pplExperiment(in, e.nproc).Sinks(sink)
		err = exp.Validate()
		s := float64(nowNS()-t0) / 1e9
		return s, func() error { sink.Close(); return os.Remove(path) }, err
	})
	if err != nil {
		return nil, err
	}

	var (
		refSHA      string
		clock       = &trialClock{start: map[trialKey]int64{}}
		tr          = &Tracer{}
		events      = &atomic.Int64{}
		steps       float64
		sinkBytes   float64
		untracedLat []float64
	)
	_, traced, err := measure(e, o, pplMinRounds, tr, func(r round) (float64, int, error) {
		path := filepath.Join(e.work, fmt.Sprintf("ppl-%d.jsonl", r.i))
		defer os.Remove(path)
		jsonl, err := repro.CreateJSONL(path)
		if err != nil {
			return 0, 0, err
		}
		clock.latency = clock.latency[:0]
		// cells maps each ring size to its runner.cell span, and 0 to the
		// runner.run span.
		run := r.tr.Begin("runner.run", r.trace, r.root)
		cells := map[int]uint64{0: run.ID}
		for _, n := range in.Sizes {
			cells[n] = r.tr.NewID()
		}
		sink := &timedSink{inner: jsonl, clock: clock, tr: r.tr, trace: r.trace, cells: cells}
		probe := func() repro.Probe { return clockProbe{clock} }
		if r.tr != nil {
			probe = func() repro.Probe {
				return &tracingProbe{clockProbe: clockProbe{clock}, tr: r.tr, trace: r.trace, cells: cells, events: events}
			}
		}
		exp := pplExperiment(in, e.nproc).Sinks(sink).ProbeWith(probe)

		t0 := nowNS()
		rep, runErr := exp.Run(e.ctx)
		r.tr.End(run)
		var repJSON []byte
		if runErr == nil {
			sp := r.tr.Begin("report.render", r.trace, r.root)
			repJSON, runErr = rep.JSON()
			r.tr.End(sp)
		}
		wall := float64(nowNS()-t0) / 1e9
		o.attempted += perRound
		if runErr != nil {
			o.check(false, perRound, "round %d: %v", r.i, runErr)
			return wall, 0, nil
		}
		if r.tr != nil {
			addCellSpans(r, tr, cells)
		} else {
			untracedLat = append(untracedLat, clock.latency...)
		}

		// Output checks: every trial converged, the sorted record stream
		// hashes the same on every repeat, and the artifact replays into
		// a byte-identical Report.
		data, err := os.ReadFile(path)
		if err != nil {
			return 0, 0, err
		}
		sp := r.tr.Begin("sink.decode", r.trace, r.root)
		recs, err := repro.ReadTrialRecords(bytes.NewReader(data))
		r.tr.End(sp)
		if err != nil {
			o.check(false, perRound, "round %d: decode records: %v", r.i, err)
			return wall, 0, nil
		}
		check := r.tr.Begin("bench.check", r.trace, r.root)
		good := 0
		for _, rec := range recs {
			if rec.Converged {
				good++
			}
			if r.tr != nil {
				steps += float64(rec.Steps)
			}
		}
		o.check(len(recs) == perRound, perRound-min(len(recs), perRound), "round %d: %d records, want %d", r.i, len(recs), perRound)
		o.check(good == len(recs), len(recs)-good, "round %d: %d of %d trials did not converge", r.i, len(recs)-good, len(recs))
		sha := sortedDigest(data)
		if refSHA == "" {
			refSHA = sha
		}
		o.check(sha == refSHA, good, "round %d: record stream sha256 %s differs from first round's %s", r.i, sha, refSHA)
		r.tr.End(check)

		sp = r.tr.Begin("report.build", r.trace, r.root)
		replay, err := pplExperiment(in, e.nproc).ReportFromRecords(recs)
		var replayJSON []byte
		if err == nil {
			replayJSON, err = replay.JSON()
		}
		r.tr.End(sp)
		o.check(err == nil && bytes.Equal(replayJSON, repJSON), good, "round %d: report replayed from records differs from Run's (%v)", r.i, err)
		if r.tr != nil {
			sinkBytes += float64(len(data))
		}
		if sha != refSHA || err != nil || !bytes.Equal(replayJSON, repJSON) {
			good = 0
		}
		return wall, good, nil
	})
	if err != nil {
		return nil, err
	}

	o.setLatency("trial start on a worker to its record in the sink", untracedLat, pplMinRounds, perRound)
	o.info["sizes"] = in.Sizes
	o.info["record_sha256"] = refSHA

	if e.trace {
		o.spans = tr.Spans()
		pplLayerMetrics(o, e.nproc, steps, events.Load(), sinkBytes, traced)
	}
	return o, nil
}

// addCellSpans records one runner.cell span per ring size, covering its
// trials and sink calls: Experiment runs cells one after another, each a
// barrier on its slowest trial.
func addCellSpans(r round, tr *Tracer, cells map[int]uint64) {
	spans := tr.Spans()
	for n, id := range cells {
		if n == 0 {
			continue
		}
		cell := Span{Name: "runner.cell", Trace: r.trace, ID: id, Parent: cells[0]}
		for _, s := range spans {
			if s.Parent != id {
				continue
			}
			if cell.Start == 0 || s.Start < cell.Start {
				cell.Start = s.Start
			}
			cell.End = max(cell.End, s.End)
		}
		if cell.Start != 0 {
			tr.Add(cell)
		}
	}
}

func pplLayerMetrics(o *outcome, workers int, steps float64, events int64, sinkBytes float64, traced []float64) {
	n := float64(len(traced))
	var trialMS []float64
	busy, sinkS, reportS, cellS := 0.0, 0.0, 0.0, 0.0
	for _, s := range o.spans {
		d := float64(s.Dur()) / 1e9
		switch s.Name {
		case "engine.trial":
			trialMS = append(trialMS, d*1e3)
			busy += d
		case "sink.record":
			sinkS += d
		case "report.build":
			reportS += d
		case "runner.cell":
			cellS += d
		}
	}
	// Workers are busy in a cell with trials and sink calls; the rest of
	// the cell's worker time waits at its barrier.
	idle := float64(workers)*cellS - busy - sinkS
	o.layer["engine.trials"] = float64(len(trialMS)) / n
	o.layer["engine.steps"] = steps / n
	o.layer["probe.events"] = float64(events) / n
	o.layer["engine.busy_s"] = busy / n
	o.layer["engine.steps_per_busy_s"] = steps / busy
	o.layer["engine.trial_p50_ms"] = median(trialMS)
	o.layer["engine.trial_tail_ms"] = tailOf(trialMS, len(trialMS)).Value
	o.layer["runner.utilization"] = busy / (sum(traced) * float64(workers))
	o.layer["runner.barrier_idle_s"] = idle / n
	o.layer["sink.record_s"] = sinkS / n
	o.layer["sink.records"] = o.layer["engine.trials"]
	o.layer["sink.bytes"] = sinkBytes / n
	o.layer["report.build_s"] = reportS / n
	o.info["engine_trial_tail"] = tailOf(trialMS, len(trialMS))
}

// sortedDigest hashes a JSONL record stream after sorting its lines by
// (n, trial): Experiment.Sinks delivers records in completion order.
func sortedDigest(data []byte) string {
	type line struct {
		n, trial int
		raw      []byte
	}
	var lines []line
	for _, raw := range bytes.SplitAfter(data, []byte("\n")) {
		if len(raw) == 0 {
			continue
		}
		var k struct {
			N     int `json:"n"`
			Trial int `json:"trial"`
		}
		json.Unmarshal(raw, &k)
		lines = append(lines, line{k.N, k.Trial, raw})
	}
	sort.Slice(lines, func(i, j int) bool {
		if lines[i].n != lines[j].n {
			return lines[i].n < lines[j].n
		}
		return lines[i].trial < lines[j].trial
	})
	h := sha256.New()
	for _, l := range lines {
		h.Write(l.raw)
	}
	return hex.EncodeToString(h.Sum(nil))
}

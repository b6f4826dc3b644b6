package repro

import (
	"context"
	"fmt"

	"repro/internal/harness"
	"repro/internal/runner"
	"repro/internal/stats"
)

// Progress is one Experiment progress event: Done of Trials trials of the
// (Protocol, N) cell have completed.
type Progress struct {
	Protocol string
	N        int
	Done     int
	Trials   int
}

// Experiment is a builder for a multi-protocol, multi-size trial matrix —
// the generalization of the paper's Table 1 regeneration to any registered
// protocol and any Scenario. Configure it with the chained setters and
// execute with Run:
//
//	rep, err := repro.NewExperiment().
//	        ProtocolNames("ppl", "yokota").
//	        Sizes(16, 32, 64).
//	        Trials(5).
//	        Run(ctx)
//
// Trials fan out across a worker pool; seeds derive from TrialSeed, so the
// resulting Report is byte-identical whatever the worker count.
//
// Beyond the in-memory Report, trials can stream: Sinks attaches
// TrialRecord consumers fed in trial order as trials finish (Run keeps
// the Report AND streams; Stream drops the Report entirely, so memory
// stays bounded by the worker count, not the trial count), Metrics adds
// composable aggregations over any record observable to the Report, and
// ProbeWith attaches a custom per-trial Probe to the event stream.
type Experiment struct {
	protocols []Protocol
	sizes     []int
	trials    int
	scenario  Scenario
	workers   int
	observer  func(Progress)
	sinks     []Sink
	metrics   []Metric
	probe     func() Probe
	caps      map[string]int
	err       error
}

// NewExperiment returns an experiment with no protocols or sizes, one
// trial per cell, the zero Scenario and one worker per core.
func NewExperiment() *Experiment {
	return &Experiment{trials: 1, caps: make(map[string]int)}
}

// Protocols appends protocol instances to the experiment, in row order.
func (e *Experiment) Protocols(ps ...Protocol) *Experiment {
	for _, p := range ps {
		if p == nil {
			e.fail(fmt.Errorf("repro: nil Protocol"))
			return e
		}
		e.protocols = append(e.protocols, p)
	}
	return e
}

// ProtocolNames appends registered protocols by name, in row order.
func (e *Experiment) ProtocolNames(names ...string) *Experiment {
	for _, name := range names {
		p, err := NewProtocol(name)
		if err != nil {
			e.fail(err)
			return e
		}
		e.protocols = append(e.protocols, p)
	}
	return e
}

// Sizes sets the requested ring sizes (protocols adjust them through
// FixSize).
func (e *Experiment) Sizes(ns ...int) *Experiment {
	e.sizes = append(e.sizes, ns...)
	return e
}

// Trials sets the number of trials per (protocol, size) cell.
func (e *Experiment) Trials(k int) *Experiment {
	e.trials = k
	return e
}

// Scenario sets the trial scenario (init class, fault schedule, budget,
// topology) shared by every cell.
func (e *Experiment) Scenario(sc Scenario) *Experiment {
	e.scenario = sc
	return e
}

// Workers caps the trial worker pool; 0 selects one worker per core.
func (e *Experiment) Workers(k int) *Experiment {
	e.workers = k
	return e
}

// Observer installs a progress callback, invoked after every completed
// trial.
//
// Concurrency contract: calls are serialized by the runner — the callback
// never runs concurrently with itself, and successive calls observe
// strictly increasing Done values — but they are issued from arbitrary
// worker goroutines, not the goroutine that called Run. A callback that
// only touches its own captured state therefore needs no mutex; one that
// shares state with code outside the callback must synchronize that
// sharing itself (the serialization guarantees exclusion between
// callbacks, not against the caller's other goroutines).
func (e *Experiment) Observer(fn func(Progress)) *Experiment {
	e.observer = fn
	return e
}

// Sinks attaches TrialRecord consumers. Records stream to every sink as
// trials finish, in trial order within a cell and cells in plan order (a
// record that finishes early waits only for the trials before it), and
// every sink is closed exactly once before Run or Stream returns (see
// Sink for the full contract). Attaching a sink switches trials to the
// probed path, which leaves results bit-identical.
func (e *Experiment) Sinks(sinks ...Sink) *Experiment {
	for _, s := range sinks {
		if s == nil {
			e.fail(fmt.Errorf("repro: nil Sink"))
			return e
		}
		e.sinks = append(e.sinks, s)
	}
	return e
}

// Metrics adds composable aggregations over per-trial record observables
// to the Report: each cell gains the metric's value over the trials
// carrying the observable, and Markdown/JSON render them (see Metric).
func (e *Experiment) Metrics(ms ...Metric) *Experiment {
	e.metrics = append(e.metrics, ms...)
	return e
}

// ProbeWith installs a per-trial Probe factory: fn is called once per
// trial and the returned probe receives that trial's full event stream
// alongside the built-in recording probe. The factory may be called from
// any worker goroutine; the probes it returns are used single-threaded
// (see Probe).
func (e *Experiment) ProbeWith(fn func() Probe) *Experiment {
	e.probe = fn
	return e
}

// MaxSizeFor caps the ring sizes run for the named protocol (matched
// against ProtocolInfo.Name): requested sizes above the cap are skipped
// and render as missing cells. Used to keep the exponential-time [11]
// baseline out of large-n sweeps.
func (e *Experiment) MaxSizeFor(name string, max int) *Experiment {
	e.caps[name] = max
	return e
}

// fail records the first builder error; Run reports it.
func (e *Experiment) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// Validate surfaces builder misuse — no protocols or sizes, a bad trial
// count, malformed metrics, a scenario a protocol rejects — without
// running anything. Run, Stream and ReportFromRecords all call it first;
// it is exported for callers (the experiment service, say) that must
// reject a bad configuration before queueing it.
func (e *Experiment) Validate() error { return e.validate() }

// validate surfaces builder misuse before any trial runs.
func (e *Experiment) validate() error {
	if e.err != nil {
		return e.err
	}
	if len(e.protocols) == 0 {
		return fmt.Errorf("repro: experiment has no protocols")
	}
	if len(e.sizes) == 0 {
		return fmt.Errorf("repro: experiment has no sizes")
	}
	if e.trials < 1 {
		return fmt.Errorf("repro: experiment needs at least one trial per cell, got %d", e.trials)
	}
	for _, m := range e.metrics {
		if err := m.validate(); err != nil {
			return err
		}
	}
	for _, p := range e.protocols {
		if err := p.Validate(e.scenario); err != nil {
			return err
		}
	}
	return nil
}

// Run executes the experiment: every (protocol, size) cell runs Trials
// independent trials with seeds TrialSeed(n, 0..Trials-1), fanned out
// across the worker pool. The returned Report aggregates per-trial
// results, per-cell summaries, metric values and fitted scaling
// exponents; attached Sinks additionally receive every TrialRecord as it
// completes. Run returns an error — never panics — on builder misuse,
// unsupported scenarios, cancellation, a failing sink, or a panicking
// trial (surfaced as a *runner.PanicError).
func (e *Experiment) Run(ctx context.Context) (*Report, error) {
	rs := newReportSink(e)
	if err := e.execute(ctx, rs); err != nil {
		return nil, err
	}
	return rs.rep, nil
}

// ReportFromRecords rebuilds the Report of this experiment from
// already-produced TrialRecords instead of running any trial — the replay
// path for record artifacts (a JSONL file, a service cache) produced by an
// identically-configured experiment. Records are matched to cells by
// (protocol name, FixSize-adjusted n, trial index); every non-skipped cell
// must be fully covered or an error is returned, so a partial artifact
// cannot silently render as an all-failures report. Because Run aggregates
// through exactly this sink, the rebuilt Report — and its rendered bytes —
// is byte-identical to the one the original Run returned, including Metric
// tables (metrics reduce record observables, which the records carry).
func (e *Experiment) ReportFromRecords(recs []TrialRecord) (*Report, error) {
	if err := e.validate(); err != nil {
		return nil, err
	}
	type cellKey struct {
		proto string
		n     int
		trial int
	}
	byKey := make(map[cellKey]TrialRecord, len(recs))
	for _, rec := range recs {
		byKey[cellKey{rec.Protocol, rec.N, rec.Trial}] = rec
	}
	rs := newReportSink(e)
	for _, p := range e.protocols {
		info := p.Info()
		rs.beginRow(p, info)
		for _, rawN := range e.sizes {
			n := p.FixSize(rawN)
			if cap, capped := e.caps[info.Name]; capped && rawN > cap {
				rs.skipCell(n)
				continue
			}
			rs.beginCell(n)
			for t := 0; t < e.trials; t++ {
				rec, ok := byKey[cellKey{info.Name, n, t}]
				if !ok {
					return nil, fmt.Errorf("repro: records missing trial %d of cell (%s, n=%d)", t, info.Name, n)
				}
				if err := rs.Record(rec); err != nil {
					return nil, err
				}
			}
			rs.endCell()
		}
		rs.endRow()
	}
	return rs.rep, nil
}

// Stream executes the experiment without building a Report: every
// TrialRecord goes to the attached Sinks — in trial order within a cell,
// cells in plan order — as soon as its trial and every earlier trial of
// the cell have finished, and is then dropped, so memory stays bounded by
// about the worker count however many trials the sweep has. At least one
// sink must be attached.
func (e *Experiment) Stream(ctx context.Context) error {
	if len(e.sinks) == 0 {
		return fmt.Errorf("repro: Stream needs at least one Sink (use Run for an in-memory Report)")
	}
	if len(e.metrics) > 0 {
		// Metric aggregation lives in the in-memory Report; silently
		// dropping configured metrics after a million-trial sweep would be
		// far worse than refusing up front.
		return fmt.Errorf("repro: Metrics need the in-memory Report — use Run, or aggregate records in a Sink")
	}
	return e.execute(ctx, nil)
}

// execute runs the trial matrix, streaming records into the report sink
// (nil in Stream mode) and the user sinks. All sinks — the Report
// included — consume the same record stream; the report sink is just the
// one that aggregates in memory.
func (e *Experiment) execute(ctx context.Context, rs *reportSink) (err error) {
	if verr := e.validate(); verr != nil {
		return verr
	}
	ss := &sinkSet{}
	if rs != nil {
		ss.sinks = append(ss.sinks, rs)
	}
	ss.sinks = append(ss.sinks, e.sinks...)
	defer func() {
		if cerr := ss.close(); err == nil {
			err = cerr
		}
	}()

	// The probed path costs a per-trial record; the legacy path is kept
	// bit-for-bit as the hot default when nobody is observing.
	probed := rs == nil || len(e.sinks) > 0 || len(e.metrics) > 0 || e.probe != nil

	for _, p := range e.protocols {
		info := p.Info()
		if rs != nil {
			rs.beginRow(p, info)
		}
		for _, rawN := range e.sizes {
			n := p.FixSize(rawN)
			if cap, capped := e.caps[info.Name]; capped && rawN > cap {
				if rs != nil {
					// An empty placeholder keeps cells positionally aligned
					// with Sizes, so renderers never attribute a cell to the
					// wrong size row.
					rs.skipCell(n)
				}
				continue
			}
			if err := e.runCell(ctx, p, info, n, probed, ss, rs); err != nil {
				return err
			}
		}
		if rs != nil {
			rs.endRow()
		}
	}
	return nil
}

// runCell fans the trials of one (protocol, size) cell out through the
// worker pool, streaming the records to the sinks in trial order.
func (e *Experiment) runCell(ctx context.Context, p Protocol, info ProtocolInfo, n int, probed bool, ss *sinkSet, rs *reportSink) error {
	if rs != nil {
		rs.beginCell(n)
	}
	ss.beginCell()
	opts := runner.Options{Workers: e.workers}
	if e.observer != nil {
		obs := e.observer
		opts.Progress = func(done, total int) {
			obs(Progress{Protocol: info.Name, N: n, Done: done, Trials: total})
		}
	}
	sc := e.scenario
	ferr := runner.ForEach(ctx, e.trials, func(t int) {
		seed := TrialSeed(n, t)
		var rec TrialRecord
		if probed {
			rp := &RecordingProbe{}
			var probe Probe = rp
			if e.probe != nil {
				if extra := e.probe(); extra != nil {
					probe = Probes(rp, extra)
				}
			}
			if _, err := ProbeTrial(p, sc, n, seed, probe); err != nil {
				ss.fail(err)
				return
			}
			rec = rp.Record()
		} else {
			res, err := p.Trial(sc, n, seed)
			if err != nil {
				ss.fail(err)
				return
			}
			rec = TrialRecord{
				Protocol: info.Name, N: res.N, Seed: res.Seed,
				Steps: res.Steps, Stabilized: res.Stabilized, Converged: res.Converged,
			}
		}
		rec.Trial = t
		ss.record(rec)
	}, opts)
	if ferr != nil {
		return ferr
	}
	if err := ss.firstErr(); err != nil {
		return err
	}
	if rs != nil {
		rs.endCell()
	}
	return nil
}

// reportSink is the in-memory aggregation as a Sink: it routes each record
// into its cell slot by Trial index and, at cell/row boundaries driven by
// execute, reduces them to the summaries, metric values and exponent fits
// of the Report — exactly the aggregation the pre-streaming Experiment
// did, so reports stay byte-identical.
type reportSink struct {
	e    *Experiment
	rep  *Report
	row  ReportRow
	cell ReportCell
	obs  []map[string]float64
}

func newReportSink(e *Experiment) *reportSink {
	rep := &Report{
		Sizes:    append([]int(nil), e.sizes...),
		Trials:   e.trials,
		Scenario: e.scenario,
	}
	for _, m := range e.metrics {
		rep.Metrics = append(rep.Metrics, m.label())
	}
	return &reportSink{e: e, rep: rep}
}

func (rs *reportSink) beginRow(p Protocol, info ProtocolInfo) {
	refSize := rs.e.sizes[len(rs.e.sizes)-1]
	rs.row = ReportRow{
		Protocol: info,
		States:   p.States(p.FixSize(refSize)),
	}
}

func (rs *reportSink) endRow() {
	rs.row.Exponent, rs.row.ExponentOK = harness.Exponent(harnessCells(rs.row.Cells))
	rs.rep.Rows = append(rs.rep.Rows, rs.row)
}

func (rs *reportSink) skipCell(n int) {
	rs.row.Cells = append(rs.row.Cells, ReportCell{N: n})
}

func (rs *reportSink) beginCell(n int) {
	rs.cell = ReportCell{N: n, Trials: make([]TrialResult, rs.e.trials)}
	rs.obs = make([]map[string]float64, rs.e.trials)
}

// Record implements Sink. The experiment serializes calls; rec.Trial
// routes the record into its pre-allocated slot, which is what keeps the
// aggregation independent of completion order.
func (rs *reportSink) Record(rec TrialRecord) error {
	rs.cell.Trials[rec.Trial] = rec.Result()
	rs.obs[rec.Trial] = rec.Observables
	return nil
}

// Close implements Sink; the report needs no flushing.
func (rs *reportSink) Close() error { return nil }

// endCell reduces the completed cell, in trial order.
func (rs *reportSink) endCell() {
	var steps, stab []float64
	for _, res := range rs.cell.Trials {
		if !res.Converged {
			rs.cell.Failures++
			continue
		}
		steps = append(steps, float64(res.Steps))
		stab = append(stab, float64(res.Stabilized))
	}
	if len(steps) > 0 {
		rs.cell.Steps = summaryFrom(stats.Summarize(steps))
		rs.cell.Stabilized = summaryFrom(stats.Summarize(stab))
	}
	for _, m := range rs.e.metrics {
		var xs []float64
		for _, o := range rs.obs {
			if v, ok := o[m.Observable]; ok {
				xs = append(xs, v)
			}
		}
		if v, ok := m.apply(xs); ok {
			if rs.cell.Metrics == nil {
				rs.cell.Metrics = make(map[string]float64, len(rs.e.metrics))
			}
			rs.cell.Metrics[m.label()] = v
		}
	}
	rs.row.Cells = append(rs.row.Cells, rs.cell)
	rs.cell = ReportCell{}
	rs.obs = nil
}

// summaryFrom converts the internal summary to the public mirror.
func summaryFrom(s stats.Summary) Summary {
	return Summary{
		Count: s.Count, Mean: s.Mean, Std: s.Std,
		Min: s.Min, Median: s.Median, P90: s.P90, Max: s.Max,
	}
}

// harnessCells converts a row's cells to the internal form the markdown
// renderers consume.
func harnessCells(cells []ReportCell) []harness.Cell {
	out := make([]harness.Cell, len(cells))
	for i, c := range cells {
		out[i] = harness.Cell{
			N:          c.N,
			Steps:      stats.Summary{Count: c.Steps.Count, Mean: c.Steps.Mean, Std: c.Steps.Std, Min: c.Steps.Min, Median: c.Steps.Median, P90: c.Steps.P90, Max: c.Steps.Max},
			Stabilized: stats.Summary{Count: c.Stabilized.Count, Mean: c.Stabilized.Mean, Std: c.Stabilized.Std, Min: c.Stabilized.Min, Median: c.Stabilized.Median, P90: c.Stabilized.P90, Max: c.Stabilized.Max},
			Failures:   c.Failures,
		}
	}
	return out
}

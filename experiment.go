package repro

import (
	"context"
	"fmt"

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
// Sink for the full contract).
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
	return rs.report(), nil
}

// ReportFromRecords rebuilds the Report of this experiment from
// already-produced TrialRecords instead of running any trial — the replay
// path for record artifacts (a JSONL file, a service cache) produced by an
// identically-configured experiment. Records are matched to cells as
// MergeShards matches them, and every non-skipped cell must be fully
// covered, so a partial or inconsistent artifact cannot silently render
// as a report. They then feed Run's own aggregation in plan order, so
// the rebuilt Report — and its rendered bytes, Metric tables included —
// is byte-identical to the one the original Run returned.
func (e *Experiment) ReportFromRecords(recs []TrialRecord) (*Report, error) {
	if err := e.validate(); err != nil {
		return nil, err
	}
	x := newRecordIndex(e)
	for _, rec := range recs {
		if err := x.add(rec); err != nil {
			return nil, fmt.Errorf("repro: %w", err)
		}
	}
	rs := newReportSink(e)
	for _, c := range x.plan {
		rs.beginCell(c)
		if c.skip {
			continue
		}
		base := x.base[c.id()]
		cell, err := x.span(base, base+x.trials)
		if err != nil {
			return nil, err
		}
		for _, rec := range cell {
			rs.Record(rec)
		}
		if err := rs.endCell(); err != nil {
			return nil, err
		}
	}
	return rs.report(), nil
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

// planCell is one (protocol, size) cell of the trial matrix.
type planCell struct {
	row  int // the protocol's index in row order
	p    Protocol
	info ProtocolInfo
	n    int  // FixSize-adjusted
	skip bool // above the protocol's MaxSizeFor cap: runs nothing
}

// id names the cell's records: (protocol display name, adjusted n).
func (c planCell) id() cellID { return cellID{c.info.Name, c.n} }

// plan lists the cells in plan order — protocols in row order, then sizes
// as configured. Running, replaying and merging all walk this one list.
func (e *Experiment) plan() []planCell {
	cells := make([]planCell, 0, len(e.protocols)*len(e.sizes))
	for row, p := range e.protocols {
		info := p.Info()
		max, capped := e.caps[info.Name]
		for _, rawN := range e.sizes {
			cells = append(cells, planCell{row: row, p: p, info: info, n: p.FixSize(rawN), skip: capped && rawN > max})
		}
	}
	return cells
}

// execute runs the trial matrix, streaming records into the report sink
// (nil in Stream mode) and the user sinks alike.
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

	for _, c := range e.plan() {
		if rs != nil {
			rs.beginCell(c)
		}
		if c.skip {
			continue
		}
		opts := runner.Options{Workers: e.workers}
		if obs := e.observer; obs != nil {
			opts.Progress = func(done, total int) {
				obs(Progress{Protocol: c.info.Name, N: c.n, Done: done, Trials: total})
			}
		}
		if err := runTrials(ctx, c.p, e.scenario, c.n, 0, e.trials, opts, e.probe, ss); err != nil {
			return err
		}
		if rs != nil {
			if err := rs.endCell(); err != nil {
				return err
			}
		}
	}
	return nil
}

// RunTrials runs trials [lo, hi) of the (p, n) cell under sc on up to
// workers goroutines (0 = one per core) and streams their TrialRecords
// into sink in trial order, closing it before returning. n must already
// be FixSize-adjusted. It is Experiment's own cell runner, so the records
// are byte-identical to the same trials of an Experiment's sink stream.
func RunTrials(ctx context.Context, p Protocol, sc Scenario, n, lo, hi, workers int, sink Sink) error {
	ss := &sinkSet{sinks: []Sink{sink}}
	err := runTrials(ctx, p, sc, n, lo, hi, runner.Options{Workers: workers}, nil, ss)
	if cerr := ss.close(); err == nil {
		err = cerr
	}
	return err
}

// runTrials is the one trial → record → sink path: trial t runs with
// seed TrialSeed(n, t) under a RecordingProbe (plus a probe from extra,
// when set), and its record goes to ss in trial order.
func runTrials(ctx context.Context, p Protocol, sc Scenario, n, lo, hi int, opts runner.Options, extra func() Probe, ss *sinkSet) error {
	ss.beginCell(lo)
	err := runner.ForEach(ctx, hi-lo, func(i int) {
		rp := &RecordingProbe{}
		var probe Probe = rp
		if extra != nil {
			if x := extra(); x != nil {
				probe = Probes(rp, x)
			}
		}
		t := lo + i
		_, err := ProbeTrial(p, sc, n, TrialSeed(n, t), probe)
		rec := rp.Record()
		rec.Trial = t
		ss.record(rec, err)
	}, opts)
	if err != nil {
		return err
	}
	return ss.firstErr()
}

// reportSink is the in-memory aggregation as a Sink: records arrive in
// trial order and append to the open cell; at the cell boundaries of the
// plan walk they reduce to the summaries, metric values and exponent
// fits of the Report.
type reportSink struct {
	e    *Experiment
	rep  *Report
	row  int // row of the open cell
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

// beginCell opens c, and with its protocol's first cell the protocol's
// row. A skipped cell goes in at once as an empty placeholder, which
// keeps cells positionally aligned with Sizes, so renderers never
// attribute a cell to the wrong size row.
func (rs *reportSink) beginCell(c planCell) {
	if c.row == len(rs.rep.Rows) {
		refSize := rs.e.sizes[len(rs.e.sizes)-1]
		rs.rep.Rows = append(rs.rep.Rows, ReportRow{Protocol: c.info, States: c.p.States(c.p.FixSize(refSize))})
	}
	if c.skip {
		rs.rep.Rows[c.row].Cells = append(rs.rep.Rows[c.row].Cells, ReportCell{N: c.n})
		return
	}
	rs.row, rs.cell, rs.obs = c.row, ReportCell{N: c.n}, nil
}

// Record implements Sink, appending rec to the open cell; the sinkSet and
// the replay both deliver in trial order.
func (rs *reportSink) Record(rec TrialRecord) error {
	rs.cell.Trials = append(rs.cell.Trials, rec.Result())
	rs.obs = append(rs.obs, rec.Observables)
	return nil
}

// Close implements Sink; the report needs no flushing.
func (rs *reportSink) Close() error { return nil }

// endCell reduces the open cell, which must hold exactly Trials records.
func (rs *reportSink) endCell() error {
	row := &rs.rep.Rows[rs.row]
	if got := len(rs.cell.Trials); got != rs.e.trials {
		return fmt.Errorf("repro: cell (%s, n=%d) holds %d records, want %d", row.Protocol.Name, rs.cell.N, got, rs.e.trials)
	}
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
	row.Cells = append(row.Cells, rs.cell)
	return nil
}

// report completes the Report, fitting each row's scaling exponent over
// its cells.
func (rs *reportSink) report() *Report {
	for i := range rs.rep.Rows {
		row := &rs.rep.Rows[i]
		row.Exponent, row.ExponentOK = fitExponent(row.Cells)
	}
	return rs.rep
}

// summaryFrom converts the internal summary to the public mirror.
func summaryFrom(s stats.Summary) Summary {
	return Summary{
		Count: s.Count, Mean: s.Mean, Std: s.Std,
		Min: s.Min, Median: s.Median, P90: s.P90, Max: s.Max,
	}
}

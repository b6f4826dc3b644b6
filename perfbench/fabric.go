package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro"
	"repro/internal/chaos"
	"repro/internal/fabric"
	"repro/internal/plan"
)

// fabricMinRounds: three sweeps fix the shard-latency tail level.
const fabricMinRounds = 3

// fabricWorkers is the number of fabric.Work workers per sweep.
const fabricWorkers = 2

// timedFS wraps the coordinator's checkpoint filesystem and records a
// span per durable write: the shard file's atomic write and the journal
// fsync. The spans are parented afterwards on the complete handler, or
// the coordinator set-up, that made the call.
type timedFS struct {
	chaos.FS
	tr *Tracer
}

func (f timedFS) WriteFileAtomic(path string, data []byte) error {
	sp := f.tr.Begin("fabric.checkpoint_write", 0, 0)
	err := f.FS.WriteFileAtomic(path, data)
	f.tr.End(sp)
	return err
}

func (f timedFS) AppendFile(path string) (chaos.AppendWriter, error) {
	w, err := f.FS.AppendFile(path)
	if err != nil {
		return nil, err
	}
	return timedSync{w, f.tr}, nil
}

type timedSync struct {
	chaos.AppendWriter
	tr *Tracer
}

func (s timedSync) Sync() error {
	sp := s.tr.Begin("fabric.checkpoint_sync", 0, 0)
	err := s.AppendWriter.Sync()
	s.tr.End(sp)
	return err
}

// workerTransport is one worker's HTTP transport. It times every
// coordinator call and derives the shard timeline from the call order: a
// worker's complete follows the lease that granted the shard, and a lease
// after a "wait" reply ends a poll wait. Renewals run on their own
// goroutine and are only timed.
type workerTransport struct {
	base  http.RoundTripper
	tr    *Tracer // nil in untraced rounds
	trace uint64
	span  uint64 // the worker's span

	mu          sync.Mutex
	leaseEnd    int64 // end of the last lease reply
	waitEnd     int64 // end of the last "wait" reply (traced rounds)
	shardMS     []float64
	runMS       []float64
	leaseRTT    []float64
	completeRTT []float64
	idleS       float64
	waits       int
	retries     int
	uploadBytes int64
}

func (t *workerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	kind := path.Base(req.URL.Path)
	start := nowNS()
	t.mu.Lock()
	switch {
	case kind == "complete" && t.leaseEnd != 0:
		t.runMS = append(t.runMS, float64(start-t.leaseEnd)/1e6)
		t.tr.Add(Span{Name: "engine.shard", Trace: t.trace, ID: t.tr.NewID(), Parent: t.span, Start: t.leaseEnd, End: start})
	case kind == "lease" && t.waitEnd != 0:
		t.idleS += float64(start-t.waitEnd) / 1e9
		t.tr.Add(Span{Name: "fabric.idle", Trace: t.trace, ID: t.tr.NewID(), Parent: t.span, Start: t.waitEnd, End: start})
		t.waitEnd = 0
	}
	t.mu.Unlock()

	sp := t.tr.Begin("fabric."+kind, t.trace, t.span)
	if t.tr != nil {
		req = req.Clone(req.Context())
		req.Header.Set(hdrTrace, strconv.FormatUint(t.trace, 10))
		req.Header.Set(hdrParent, strconv.FormatUint(sp.ID, 10))
	}
	resp, err := t.base.RoundTrip(req)
	status := ""
	if t.tr != nil && kind == "lease" && err == nil && resp.StatusCode == http.StatusOK {
		// Read the small lease reply to tell shard grants from waits.
		var body []byte
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
		var lr fabric.LeaseResponse
		json.Unmarshal(body, &lr)
		status = lr.Status
	}
	end := nowNS()
	t.tr.End(sp)

	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.retries++
		return resp, err
	}
	switch kind {
	case "lease":
		t.leaseRTT = append(t.leaseRTT, float64(end-start)/1e6)
		t.leaseEnd = end
		if status == fabric.StatusWait {
			t.waits++
			t.waitEnd = end
		}
	case "complete":
		t.completeRTT = append(t.completeRTT, float64(end-start)/1e6)
		t.uploadBytes += req.ContentLength
		if t.leaseEnd != 0 {
			t.shardMS = append(t.shardMS, float64(end-t.leaseEnd)/1e6)
			t.leaseEnd = 0
		}
	}
	return resp, nil
}

// idleUntil closes a poll wait still open when the sweep completed at
// end: the worker idled until then, and was stopped before polling again.
func (t *workerTransport) idleUntil(end int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.waitEnd != 0 && end > t.waitEnd {
		t.idleS += float64(end-t.waitEnd) / 1e9
		t.tr.Add(Span{Name: "fabric.idle", Trace: t.trace, ID: t.tr.NewID(), Parent: t.span, Start: t.waitEnd, End: end})
		t.waitEnd = 0
	}
}

// fabricRoute names the coordinator-side span of a worker call.
func fabricRoute(r *http.Request) string {
	return "fabric." + path.Base(r.URL.Path) + ".handle"
}

// serialRun is the Workers(1) reference: its record stream and report
// are what every sweep must merge into, byte for byte.
func serialRun(ctx context.Context, spec plan.Spec) (records, report []byte, err error) {
	var buf bytes.Buffer
	rep, err := spec.Experiment().Workers(1).Sinks(repro.NewJSONLSink(&buf)).Run(ctx)
	if err != nil {
		return nil, nil, err
	}
	report, err = rep.JSON()
	return buf.Bytes(), report, err
}

// runFabric runs the fabric-shards workload: an in-process coordinator on
// an on-disk checkpoint directory and two workers over loopback, each
// sweep ending when the merged records and report are written.
func runFabric(e *env, in *FabricInputs) (*outcome, error) {
	o := newOutcome()
	spec := in.Spec
	shards, err := fabric.PlanShards(spec, in.ShardTrials)
	if err != nil {
		return nil, err
	}
	perRound := len(shards) * in.ShardTrials

	start := func(dir string, tr *Tracer) (*fabric.Coordinator, *httptest.Server, error) {
		fsys := chaos.OS()
		if tr != nil {
			fsys = timedFS{fsys, tr}
		}
		coord, err := fabric.NewCoordinator(fabric.CoordinatorConfig{Spec: spec, ShardTrials: in.ShardTrials, Dir: dir, FS: fsys})
		if err != nil {
			return nil, nil, err
		}
		var h http.Handler = coord.Handler()
		if tr != nil {
			h = spanHandler(tr, fabricRoute, h)
		}
		return coord, httptest.NewServer(h), nil
	}
	err = timeSetup(o, func(i int) (float64, func() error, error) {
		dir := filepath.Join(e.work, fmt.Sprintf("setup-%d", i))
		t0 := nowNS()
		coord, srv, err := start(dir, nil)
		s := float64(nowNS()-t0) / 1e9
		if err != nil {
			return 0, nil, err
		}
		return s, func() error {
			srv.Close()
			coord.Close()
			return os.RemoveAll(dir)
		}, nil
	})
	if err != nil {
		return nil, err
	}

	t0 := nowNS()
	wantRecords, wantReport, err := serialRun(e.ctx, spec)
	if err != nil {
		return nil, fmt.Errorf("serial reference run: %w", err)
	}
	serialS := float64(nowNS()-t0) / 1e9

	tr := &Tracer{}
	var (
		shardLat     []float64
		transports   []*workerTransport
		stats        []fabric.Stats
		workerWall   float64
		tracedSteps  float64
		tracedTrials int
	)
	untraced, _, err := measure(e, o, fabricMinRounds, tr, func(r round) (float64, int, error) {
		dir := filepath.Join(e.work, fmt.Sprintf("round-%d", r.i))
		defer os.RemoveAll(dir)
		o.attempted += perRound

		sp := r.tr.Begin("fabric.setup", r.trace, r.root)
		coord, srv, err := start(dir, r.tr)
		r.tr.End(sp)
		if err != nil {
			return 0, 0, err
		}
		defer coord.Close()
		defer srv.Close()

		ctx, cancel := context.WithCancel(e.ctx)
		defer cancel()
		wts := make([]*workerTransport, fabricWorkers)
		werrs := make([]error, fabricWorkers)
		walls := make([]float64, fabricWorkers)
		var wg sync.WaitGroup
		t0 := nowNS()
		for w := range wts {
			ws := r.tr.Begin("fabric.worker", r.trace, r.root)
			wts[w] = &workerTransport{base: http.DefaultTransport, tr: r.tr, trace: r.trace, span: ws.ID}
			cfg := fabric.WorkerConfig{
				Coordinator:  srv.URL,
				Name:         fmt.Sprintf("w%d", w),
				TrialWorkers: 1,
				Client:       &http.Client{Timeout: 5 * time.Minute, Transport: wts[w]},
			}
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				werrs[w] = fabric.Work(ctx, cfg)
				r.tr.End(ws)
				walls[w] = float64(nowNS()-ws.Start) / 1e9
			}(w)
		}
		waitErr := coord.Wait(ctx)
		doneAt := nowNS()
		var merged []repro.TrialRecord
		var mergedBytes, reportBytes []byte
		if waitErr == nil {
			mergedBytes, reportBytes, merged, waitErr = writeMerged(r, coord, spec, dir)
		}
		wall := float64(nowNS()-t0) / 1e9
		// Workers see "done" on their next poll; cancelling spares them the
		// poll interval.
		cancel()
		wg.Wait()
		st := coord.Stats()
		for _, t := range wts {
			t.idleUntil(doneAt)
		}

		ck := r.tr.Begin("bench.check", r.trace, r.root)
		defer r.tr.End(ck)
		for w, err := range werrs {
			if err != nil && !errors.Is(err, context.Canceled) {
				o.check(false, 0, "round %d: worker w%d: %v", r.i, w, err)
				if waitErr == nil {
					waitErr = err
				}
			}
		}
		if waitErr != nil {
			o.check(false, perRound, "round %d: %v", r.i, waitErr)
			return wall, 0, nil
		}
		good := bytes.Equal(mergedBytes, wantRecords) && bytes.Equal(reportBytes, wantReport)
		o.check(good, perRound, "round %d: merged records or report differ from the Workers(1) run", r.i)
		o.check(st.Shards.Done == len(shards), 0, "round %d: %d of %d shards done", r.i, st.Shards.Done, len(shards))
		if !good {
			return wall, 0, nil
		}
		if r.tr == nil {
			for _, t := range wts {
				shardLat = append(shardLat, t.shardMS...)
			}
		} else {
			transports = append(transports, wts...)
			workerWall += sum(walls)
			stats = append(stats, st)
			tracedTrials += len(merged)
			for _, rec := range merged {
				tracedSteps += float64(rec.Steps)
			}
		}
		return wall, len(merged), nil
	})
	if err != nil {
		return nil, err
	}

	o.setLatency("shard lease reply to complete acknowledged, at the worker", shardLat, fabricMinRounds, len(shards))
	o.info["sizes"] = spec.Sizes
	o.info["shards_per_round"] = len(shards)
	o.info["serial_s"] = serialS

	if e.trace {
		o.spans = tr.Spans()
		for _, child := range []string{"fabric.checkpoint_write", "fabric.checkpoint_sync"} {
			for _, parent := range []string{"fabric.complete.handle", "fabric.setup", "bench.round"} {
				adopt(o.spans, child, parent)
			}
		}
		fabricLayerMetrics(o, transports, stats, workerWall, serialS, mean(untraced), tracedTrials, tracedSteps)
	}
	return o, nil
}

// writeMerged materializes the sweep as cmd/fabric coordinate -out
// -report does: the merged record stream and the JSON report.
func writeMerged(r round, coord *fabric.Coordinator, spec plan.Spec, dir string) (records, report []byte, merged []repro.TrialRecord, err error) {
	sp := r.tr.Begin("fabric.merge", r.trace, r.root)
	merged, err = coord.Merged()
	if err == nil {
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if err = repro.WriteTrialRecords(bw, merged); err == nil {
			err = bw.Flush()
		}
		records = buf.Bytes()
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, "merged.jsonl"), records, 0o644)
		}
	}
	r.tr.End(sp)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("merge: %w", err)
	}
	sp = r.tr.Begin("report.build", r.trace, r.root)
	defer r.tr.End(sp)
	ps := r.tr.Begin("plan.experiment", r.trace, sp.ID)
	exp := spec.Experiment()
	r.tr.End(ps)
	rep, err := exp.ReportFromRecords(merged)
	if err == nil {
		report, err = rep.JSON()
	}
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, "report.json"), report, 0o644)
	}
	if err != nil {
		return nil, nil, nil, fmt.Errorf("report: %w", err)
	}
	return records, report, merged, nil
}

func fabricLayerMetrics(o *outcome, ts []*workerTransport, stats []fabric.Stats, workerWall, serialS, sweepS float64, trials int, steps float64) {
	n := float64(len(stats))
	var lease, complete, run []float64
	idle, waits, retries, upload := 0.0, 0, 0, int64(0)
	for _, t := range ts {
		lease = append(lease, t.leaseRTT...)
		complete = append(complete, t.completeRTT...)
		run = append(run, t.runMS...)
		idle += t.idleS
		waits += t.waits
		retries += t.retries
		upload += t.uploadBytes
	}
	durMS := func(name string) []float64 {
		var xs []float64
		for _, s := range o.spans {
			if s.Name == name {
				xs = append(xs, float64(s.Dur())/1e6)
			}
		}
		return xs
	}
	var issued, reissued, dups float64
	for _, s := range stats {
		issued += float64(s.Leases.Issued)
		reissued += float64(s.Leases.Reissued)
		dups += float64(s.Shards.Duplicates)
	}
	o.layer["engine.trials"] = float64(trials) / n
	o.layer["engine.steps"] = steps / n
	o.layer["engine.busy_s"] = sum(run) / 1e3 / n
	if sum(run) > 0 {
		o.layer["engine.steps_per_busy_s"] = steps / (sum(run) / 1e3)
	}
	o.layer["fabric.lease_rtt_ms"] = median(lease)
	o.layer["fabric.lease_rtt_tail_ms"] = tailOf(lease, len(lease)).Value
	o.layer["fabric.complete_rtt_ms"] = median(complete)
	o.layer["fabric.complete_rtt_tail_ms"] = tailOf(complete, len(complete)).Value
	o.layer["fabric.server_complete_ms"] = median(durMS("fabric.complete.handle"))
	o.layer["fabric.checkpoint_write_ms"] = median(durMS("fabric.checkpoint_write"))
	o.layer["fabric.checkpoint_sync_ms"] = median(durMS("fabric.checkpoint_sync"))
	o.layer["fabric.shard_run_ms"] = median(run)
	o.layer["fabric.worker_idle_s"] = idle / n
	o.layer["fabric.overhead_share"] = (sum(lease)/1e3 + sum(complete)/1e3 + idle) / workerWall
	o.layer["fabric.merge_s"] = (sum(durMS("fabric.merge")) + sum(durMS("report.build"))) / 1e3 / n
	o.layer["report.build_s"] = sum(durMS("report.build")) / 1e3 / n
	o.layer["fabric.leases_issued"] = issued / n
	o.layer["fabric.lease_waits"] = float64(waits) / n
	o.layer["fabric.reissued"] = reissued / n
	o.layer["fabric.duplicates"] = dups / n
	o.layer["fabric.retries"] = float64(retries) / n
	o.layer["fabric.upload_bytes"] = float64(upload) / n
	o.layer["fabric.serial_s"] = serialS
	o.layer["fabric.parallel_efficiency"] = serialS / (sweepS * fabricWorkers)
}

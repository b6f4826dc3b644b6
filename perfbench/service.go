package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/plan"
	"repro/internal/service"
)

// serviceMinRounds: three rounds of serviceJobs jobs fix the latency tail
// level at the 100·(1 − 10/360) percentile.
const serviceMinRounds = 3

// Headers that carry a request's trace and parent span to the server-side
// span middleware.
const (
	hdrTrace  = "X-Perfbench-Trace"
	hdrParent = "X-Perfbench-Parent"
)

// spanHandler records one server-side span per request, named by name(r)
// and parented on the client span the request headers carry.
func spanHandler(tr *Tracer, name func(*http.Request) string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trace, _ := strconv.ParseUint(r.Header.Get(hdrTrace), 10, 64)
		parent, _ := strconv.ParseUint(r.Header.Get(hdrParent), 10, 64)
		sp := tr.Begin(name(r), trace, parent)
		h.ServeHTTP(w, r)
		tr.End(sp)
	})
}

// serviceRoute names the span of one service request. The report
// endpoint replays records through the report layer, so its span is
// attributed there.
func serviceRoute(r *http.Request) string {
	switch p := r.URL.Path; {
	case r.Method == http.MethodPost && p == "/v1/jobs":
		return "service.submit"
	case strings.HasSuffix(p, "/records"):
		return "service.records"
	case strings.HasSuffix(p, "/report"):
		return "report.replay"
	case p == "/v1/stats":
		return "service.stats"
	default:
		return "service.status"
	}
}

// serviceSystem is the system under test: the service configured as
// cmd/serve -cache-dir -artifacts configures it, behind a loopback
// listener.
type serviceSystem struct {
	svc *service.Server
	srv *httptest.Server
	dir string
}

func startService(dir string, cacheBytes int64, tr *Tracer) (*serviceSystem, error) {
	artifacts := filepath.Join(dir, "artifacts")
	// cmd/serve creates the artifacts directory before building the
	// service; without it every job fails.
	if err := os.MkdirAll(artifacts, 0o755); err != nil {
		return nil, err
	}
	svc := service.New(service.Config{
		Workers:      2,
		QueueDepth:   16,
		CacheBytes:   cacheBytes,
		CacheDir:     filepath.Join(dir, "cache"),
		ArtifactsDir: artifacts,
	})
	var h http.Handler = svc.Handler()
	if tr != nil {
		h = spanHandler(tr, serviceRoute, h)
	}
	return &serviceSystem{svc: svc, srv: httptest.NewServer(h), dir: dir}, nil
}

func (s *serviceSystem) stop() error {
	s.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.svc.Shutdown(ctx)
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// jobResult is one job as its client saw it.
type jobResult struct {
	latency, submit, first, reprt float64 // ms
	status                        service.JobStatus
	records, want                 int
	sha                           string
	problem                       string
}

// client issues a job's requests, with trace headers in traced rounds.
type client struct {
	http  *http.Client
	base  string
	tr    *Tracer
	trace uint64
	span  uint64
}

func (c *client) do(method, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if c.tr != nil {
		req.Header.Set(hdrTrace, strconv.FormatUint(c.trace, 10))
		req.Header.Set(hdrParent, strconv.FormatUint(c.span, 10))
	}
	return c.http.Do(req)
}

func (c *client) get(path string) ([]byte, int, error) {
	resp, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

// runJob submits one job, streams its records to EOF and fetches its JSON
// report, then checks what came back. Latency runs from submit to report.
func runJob(hc *http.Client, base string, spec plan.Spec, r round) jobResult {
	var res jobResult
	c := &client{http: hc, base: base, tr: r.tr}
	job := r.tr.Begin("bench.job", r.tr.NewID(), r.root)
	c.trace, c.span = job.Trace, job.ID
	defer r.tr.End(job)

	sp := r.tr.Begin("plan.cells", job.Trace, job.ID)
	cells, err := spec.Cells()
	r.tr.End(sp)
	if err != nil {
		res.problem = fmt.Sprintf("plan: %v", err)
		return res
	}
	for _, cell := range cells {
		if !cell.Skipped {
			res.want += spec.Trials
		}
	}
	body, err := json.Marshal(spec)
	if err != nil {
		res.problem = err.Error()
		return res
	}
	t0 := nowNS()
	resp, err := c.do(http.MethodPost, "/v1/jobs", body)
	if err != nil {
		res.problem = fmt.Sprintf("submit: %v", err)
		return res
	}
	var sub struct {
		ID         string `json:"id"`
		RecordsURL string `json:"records_url"`
		ReportURL  string `json:"report_url"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		res.problem = fmt.Sprintf("submit answered %d (%v)", resp.StatusCode, err)
		return res
	}
	t1 := nowNS()

	resp, err = c.do(http.MethodGet, sub.RecordsURL, nil)
	if err != nil {
		res.problem = fmt.Sprintf("records: %v", err)
		return res
	}
	var recs bytes.Buffer
	one := make([]byte, 1)
	n, _ := io.ReadFull(resp.Body, one)
	t2 := nowNS()
	recs.Write(one[:n])
	_, err = recs.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		res.problem = fmt.Sprintf("records: %v", err)
		return res
	}
	t3 := nowNS()
	rep, code, err := c.get(sub.ReportURL + "?format=json")
	t4 := nowNS()
	res.latency = float64(t4-t0) / 1e6
	res.submit = float64(t1-t0) / 1e6
	res.first = float64(t2-t1) / 1e6
	res.reprt = float64(t4-t3) / 1e6

	// Checks, outside the timed path: the job is done, its records decode
	// to one per planned trial, and its report is JSON.
	st, _, err := c.get("/v1/jobs/" + sub.ID)
	if err == nil {
		err = json.Unmarshal(st, &res.status)
	}
	if err != nil {
		res.problem = fmt.Sprintf("status: %v", err)
		return res
	}
	if r.tr != nil && res.status.Started != nil && res.status.Finished != nil {
		r.tr.Add(Span{Name: "service.queue", Trace: job.Trace, ID: r.tr.NewID(), Parent: job.ID,
			Start: res.status.Created.UnixNano(), End: res.status.Started.UnixNano()})
		r.tr.Add(Span{Name: "service.run", Trace: job.Trace, ID: r.tr.NewID(), Parent: job.ID,
			Start: res.status.Started.UnixNano(), End: res.status.Finished.UnixNano()})
	}
	sp = r.tr.Begin("sink.decode", job.Trace, job.ID)
	decoded, derr := repro.ReadTrialRecords(bytes.NewReader(recs.Bytes()))
	r.tr.End(sp)
	res.records = len(decoded)
	digest := sha256.Sum256(recs.Bytes())
	res.sha = hex.EncodeToString(digest[:])
	switch {
	case res.status.State != service.StateDone:
		res.problem = fmt.Sprintf("job %s ended %s: %s", sub.ID, res.status.State, res.status.Error)
	case derr != nil:
		res.problem = fmt.Sprintf("job %s records: %v", sub.ID, derr)
	case res.records != res.want:
		res.problem = fmt.Sprintf("job %s: %d records, want %d", sub.ID, res.records, res.want)
	case code != http.StatusOK || !json.Valid(rep):
		res.problem = fmt.Sprintf("job %s report answered %d", sub.ID, code)
	}
	return res
}

// runService runs the service-mix workload: nproc closed-loop clients,
// each submitting its next job only after the previous one's report
// arrived, against a fresh server per round.
func runService(e *env, in *ServiceInputs) (*outcome, error) {
	o := newOutcome()
	err := timeSetup(o, func(i int) (float64, func() error, error) {
		t0 := nowNS()
		sys, err := startService(filepath.Join(e.work, fmt.Sprintf("setup-%d", i)), in.CacheBytes, nil)
		s := float64(nowNS()-t0) / 1e9
		if err != nil {
			return 0, nil, err
		}
		return s, sys.stop, nil
	})
	if err != nil {
		return nil, err
	}

	transport := &http.Transport{MaxIdleConnsPerHost: e.nproc}
	defer transport.CloseIdleConnections()
	hc := &http.Client{Transport: transport, Timeout: time.Minute}

	tr := &Tracer{}
	firstSHA := map[string]string{} // spec JSON → records sha256 of its first run
	var (
		lat           []float64
		traced        []jobResult
		stats         []service.Stats
		artifactBytes float64
	)
	_, _, err = measure(e, o, serviceMinRounds, tr, func(r round) (float64, int, error) {
		sys, err := startService(filepath.Join(e.work, fmt.Sprintf("round-%d", r.i)), in.CacheBytes, r.tr)
		if err != nil {
			return 0, 0, err
		}
		results := make([]jobResult, len(in.Jobs))
		var next atomic.Int64
		var wg sync.WaitGroup
		t0 := nowNS()
		for c := 0; c < e.nproc; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(in.Jobs) || e.ctx.Err() != nil {
						return
					}
					results[i] = runJob(hc, sys.srv.URL, in.Jobs[i], r)
				}
			}()
		}
		wg.Wait()
		wall := float64(nowNS()-t0) / 1e9

		var st service.Stats
		c := &client{http: hc, base: sys.srv.URL, tr: r.tr, trace: r.trace, span: r.root}
		data, _, err := c.get("/v1/stats")
		if err == nil {
			err = json.Unmarshal(data, &st)
		}
		if err != nil {
			sys.stop()
			return 0, 0, fmt.Errorf("stats: %w", err)
		}
		art := dirBytes(filepath.Join(sys.dir, "artifacts"))
		if err := sys.stop(); err != nil {
			return 0, 0, fmt.Errorf("stop service: %w", err)
		}

		verified := 0
		for i, res := range results {
			o.attempted += max(res.want, 1)
			if res.problem == "" {
				key, _ := json.Marshal(in.Jobs[i])
				if first, ok := firstSHA[string(key)]; !ok {
					firstSHA[string(key)] = res.sha
				} else if first != res.sha {
					res.problem = fmt.Sprintf("job %d: records differ from an earlier run of the same spec", i)
				}
			}
			o.check(res.problem == "", max(res.want, 1), "round %d: %s", r.i, res.problem)
			if res.problem != "" {
				continue
			}
			verified += res.records
			if r.tr == nil {
				lat = append(lat, res.latency)
			} else {
				traced = append(traced, res)
			}
		}
		if r.tr != nil {
			stats = append(stats, st)
			artifactBytes += float64(art)
		}
		return wall, verified, nil
	})
	if err != nil {
		return nil, err
	}

	o.setLatency("job submit to JSON report received", lat, serviceMinRounds, len(in.Jobs))
	o.info["jobs_per_round"] = len(in.Jobs)
	o.info["cache_bytes"] = in.CacheBytes

	if e.trace {
		o.spans = tr.Spans()
		serviceLayerMetrics(o, traced, stats, artifactBytes)
	}
	return o, nil
}

func serviceLayerMetrics(o *outcome, jobs []jobResult, stats []service.Stats, artifactBytes float64) {
	n := float64(len(stats))
	var submit, first, report, warm, cold, queue, run []float64
	for _, j := range jobs {
		submit = append(submit, j.submit)
		first = append(first, j.first)
		report = append(report, j.reprt)
		if j.status.CacheMisses == 0 {
			warm = append(warm, j.latency)
		} else {
			cold = append(cold, j.latency)
		}
		if j.status.Started != nil && j.status.Finished != nil {
			queue = append(queue, float64(j.status.Started.Sub(j.status.Created))/1e6)
			run = append(run, float64(j.status.Finished.Sub(*j.status.Started))/1e6)
		}
	}
	var hits, misses, disk, evictions, shed, failed float64
	for _, s := range stats {
		hits += float64(s.Cache.Hits)
		misses += float64(s.Cache.Misses)
		disk += float64(s.Cache.DiskHits)
		evictions += float64(s.Cache.Evictions)
		shed += float64(s.Shed.QueueFull + s.Shed.Draining)
		failed += float64(s.Jobs.Failed)
	}
	o.layer["service.submit_ms"] = median(submit)
	o.layer["service.first_byte_ms"] = median(first)
	o.layer["service.report_ms"] = median(report)
	o.layer["service.warm_job_p50_ms"] = median(warm)
	o.layer["service.cold_job_p50_ms"] = median(cold)
	o.layer["service.queue_wait_ms"] = median(queue)
	o.layer["service.queue_wait_tail_ms"] = tailOf(queue, len(queue)).Value
	o.layer["service.run_ms"] = median(run)
	o.layer["service.run_tail_ms"] = tailOf(run, len(run)).Value
	o.layer["service.cache_hits"] = hits / n
	o.layer["service.cache_misses"] = misses / n
	if hits+misses > 0 {
		o.layer["service.cache_hit_ratio"] = hits / (hits + misses)
	}
	o.layer["service.cache_disk_hits"] = disk / n
	o.layer["service.cache_evictions"] = evictions / n
	o.layer["service.shed"] = shed / n
	o.layer["service.jobs_failed"] = failed / n
	o.layer["sink.artifact_bytes"] = artifactBytes / n
	reportS := 0.0
	for _, s := range o.spans {
		if s.Name == "report.replay" {
			reportS += float64(s.Dur()) / 1e9
		}
	}
	o.layer["report.build_s"] = reportS / n
	o.info["warm_jobs"] = len(warm)
	o.info["cold_jobs"] = len(cold)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}

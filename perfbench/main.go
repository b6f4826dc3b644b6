// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed time, checks every output, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics and a span
// file) with the result as a JSON object on the last line of stdout:
//
//	bash perfbench/run.sh --workload ppl-sweep --seed 1 --seconds 30 --trace 0
//
// Workloads: ppl-sweep (library Experiment of P_PL), service-mix (closed
// loop against the experiment service) and fabric-shards (coordinator and
// two workers against the serial run). See README.md for the metrics and
// why each workload exists.
//
// The benchmark times the program from outside: it wraps the public entry
// points of each layer and changes no program code.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runLimit bounds a whole run, set-up and reference runs included.
const runLimit = 170 * time.Second

// setupReps is how many times each workload builds its system under test
// to measure set-up time; the median is reported.
const setupReps = 31

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"trials_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the traced run's metrics. Sums and counts are per traced
// round; a layer a workload does not reach reads 0.
var perLayer = []metricDef{
	{"engine.trials", "count"},
	{"engine.steps", "count"},
	{"probe.events", "count"},
	{"engine.busy_s", "s"},
	{"engine.steps_per_busy_s", "1/s"},
	{"engine.trial_p50_ms", "ms"},
	{"engine.trial_tail_ms", "ms"},
	{"runner.utilization", "ratio"},
	{"runner.barrier_idle_s", "s"},
	{"sink.record_s", "s"},
	{"sink.records", "count"},
	{"sink.bytes", "bytes"},
	{"sink.artifact_bytes", "bytes"},
	{"report.build_s", "s"},
	{"service.submit_ms", "ms"},
	{"service.first_byte_ms", "ms"},
	{"service.report_ms", "ms"},
	{"service.warm_job_p50_ms", "ms"},
	{"service.cold_job_p50_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.queue_wait_tail_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.run_tail_ms", "ms"},
	{"service.cache_hits", "count"},
	{"service.cache_misses", "count"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.cache_disk_hits", "count"},
	{"service.cache_evictions", "count"},
	{"service.shed", "count"},
	{"service.jobs_failed", "count"},
	{"fabric.lease_rtt_ms", "ms"},
	{"fabric.lease_rtt_tail_ms", "ms"},
	{"fabric.complete_rtt_ms", "ms"},
	{"fabric.complete_rtt_tail_ms", "ms"},
	{"fabric.server_complete_ms", "ms"},
	{"fabric.checkpoint_write_ms", "ms"},
	{"fabric.checkpoint_sync_ms", "ms"},
	{"fabric.shard_run_ms", "ms"},
	{"fabric.worker_idle_s", "s"},
	{"fabric.overhead_share", "ratio"},
	{"fabric.merge_s", "s"},
	{"fabric.leases_issued", "count"},
	{"fabric.lease_waits", "count"},
	{"fabric.reissued", "count"},
	{"fabric.duplicates", "count"},
	{"fabric.retries", "count"},
	{"fabric.upload_bytes", "bytes"},
	{"fabric.serial_s", "s"},
	{"fabric.parallel_efficiency", "ratio"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.wall_s", "s"},
	{"trace.unattributed_s", "s"},
	{"engine.self_s", "s"},
	{"probe.self_s", "s"},
	{"runner.self_s", "s"},
	{"sink.self_s", "s"},
	{"report.self_s", "s"},
	{"plan.self_s", "s"},
	{"service.self_s", "s"},
	{"fabric.self_s", "s"},
}

// layers are the program's modules, in the order the span summary prints
// them; "bench" is the benchmark's own time, printed as unattributed.
var layers = []string{"engine", "probe", "runner", "sink", "report", "plan", "service", "fabric"}

// env is one run's configuration.
type env struct {
	ctx     context.Context
	seconds float64
	trace   bool
	nproc   int
	work    string // temporary directory of this run, removed at exit
}

// outcome is what a workload run measured and checked.
type outcome struct {
	attempted, failed int
	problems          []string
	e2e               map[string]float64
	layer             map[string]float64
	info              map[string]any
	spans             []Span
	rounds, traced    int
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, info: map[string]any{}}
}

// check records n failed operations when ok is false.
func (o *outcome) check(ok bool, n int, format string, args ...any) {
	if ok {
		return
	}
	o.failed += n
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// setLatency records the latency metrics of the untraced rounds' samples;
// what says what one sample times. The tail level is fixed from the
// fewest samples a run takes, minRounds rounds of perRound samples (see
// tail); a traced run has fewer untraced rounds, and uses what it has.
func (o *outcome) setLatency(what string, xs []float64, minRounds, perRound int) {
	t := tailOf(xs, min(minRounds, o.rounds)*perRound)
	o.e2e["latency_p50_ms"] = median(xs)
	o.e2e["latency_tail_ms"] = t.Value
	o.info["latency"] = what
	o.info["latency_p50_samples"] = len(xs)
	o.info["latency_tail"] = t
}

// round is one unit of a workload's work. tr is nil in untraced rounds;
// root is the round's root span, which the loop records.
type round struct {
	i     int
	tr    *Tracer
	trace uint64
	root  uint64
}

// measure runs rounds until the window is used up and at least minRounds
// ran; a round that would end more than half a round past the window is
// not started. A traced run alternates untraced and traced rounds and
// ends after a traced one, so both modes measure the same work and their
// ratio is the tracing overhead. fn returns the round's timed wall time in seconds and
// the trials it delivered that passed every check; trials_per_s is the
// median over untraced rounds, which a transient slowdown of one round
// does not move.
func measure(e *env, o *outcome, minRounds int, tr *Tracer, fn func(r round) (float64, int, error)) (untraced, traced []float64, err error) {
	var rates, peaks []float64
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; ; i++ {
		on := e.trace && i%2 == 1
		done := false
		if n := len(untraced) + len(traced); n > 0 {
			done = time.Since(start).Seconds()+(sum(untraced)+sum(traced))/float64(2*n) >= e.seconds
		}
		if e.trace {
			done = done && len(traced) >= 1 && !on
		} else {
			done = done && len(untraced) >= minRounds
		}
		if done {
			break
		}
		if err := e.ctx.Err(); err != nil {
			return nil, nil, fmt.Errorf("run limit reached after %d rounds: %w", i, err)
		}
		r := round{i: i}
		var rootSpan Span
		if on {
			r.tr, r.trace = tr, uint64(i+1)
			rootSpan = tr.Begin("bench.round", r.trace, 0)
			r.root = rootSpan.ID
		}
		resetPeakRSS()
		wall, verified, err := fn(r)
		if err != nil {
			return nil, nil, err
		}
		if on {
			tr.End(rootSpan)
			traced = append(traced, wall)
		} else {
			untraced = append(untraced, wall)
			rates = append(rates, float64(verified)/wall)
			peaks = append(peaks, peakRSSMB())
		}
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	n := float64(len(untraced) + len(traced))
	o.rounds, o.traced = len(untraced), len(traced)
	o.info["round_walls_s"] = untraced
	o.e2e["trials_per_s"] = median(rates)
	o.e2e["peak_rss_mb"] = median(peaks)
	o.layer["runtime.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6 / n
	o.layer["runtime.gc_cycles"] = float64(ms1.NumGC-ms0.NumGC) / n
	if len(traced) > 0 {
		o.layer["trace.overhead_ratio"] = mean(traced) / mean(untraced)
	}
	return untraced, traced, nil
}

// timeSetup builds the system under test setupReps times and records the
// median set-up time; build returns its set-up seconds and a teardown.
func timeSetup(o *outcome, build func(i int) (float64, func() error, error)) error {
	var xs []float64
	for i := 0; i < setupReps; i++ {
		// Set-up touches the filesystem; flush earlier writes first, so a
		// rep does not pay for write-back the previous teardown queued.
		syscall.Sync()
		s, teardown, err := build(i)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		if err := teardown(); err != nil {
			return fmt.Errorf("teardown: %w", err)
		}
		xs = append(xs, s)
	}
	o.e2e["setup_s"] = median(xs)
	o.info["setup_samples_s"] = xs
	return nil
}

// summarizeSpans folds the traced rounds' layer self times into the
// per-layer metrics (per traced round) and returns the printable table.
func summarizeSpans(o *outcome) string {
	s := Summarize(o.spans)
	n := float64(max(o.traced, 1))
	var b strings.Builder
	fmt.Fprintf(&b, "# span self time over %d traced rounds (wall-share s; raw self s)\n", o.traced)
	attributed := 0.0
	for _, l := range layers {
		lt := s.Layer(l)
		o.layer[l+".self_s"] = lt.WallS / n
		attributed += lt.WallS
		fmt.Fprintf(&b, "#   %-14s %10.4f %10.4f  (%d spans)\n", l, lt.WallS, lt.SelfS, lt.Spans)
	}
	rest := s.WallS - attributed
	fmt.Fprintf(&b, "#   %-14s %10.4f\n", "unattributed", rest)
	fmt.Fprintf(&b, "#   %-14s %10.4f  (layers + unattributed)\n", "traced wall", s.WallS)
	o.layer["trace.wall_s"] = s.WallS / n
	o.layer["trace.unattributed_s"] = rest / n
	return b.String()
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload  = flag.String("workload", "", "ppl-sweep | service-mix | fabric-shards")
		seed      = flag.Uint64("seed", 1, "workload seed")
		seconds   = flag.Float64("seconds", 30, "measurement window, seconds")
		traceFlag = flag.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
		summarize = flag.String("summarize", "", "print the per-layer self-time summary of a span file and exit")
	)
	flag.Parse()
	if *summarize != "" {
		return summarizeFile(*summarize)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace takes 0 or 1")
		return 2
	}
	in, err := Generate(*workload, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	digest, err := in.Digest()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	build := filepath.Join(root, ".bench_build")
	work, err := os.MkdirTemp(mkdir(build), "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	e := &env{ctx: ctx, seconds: *seconds, trace: *traceFlag == 1, nproc: runtime.NumCPU(), work: work}

	var o *outcome
	switch *workload {
	case "ppl-sweep":
		o, err = runPPL(e, in.PPL)
	case "service-mix":
		o, err = runService(e, in.Service)
	case "fabric-shards":
		o, err = runFabric(e, in.Fabric)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}

	prov := map[string]any{
		"workload":      *workload,
		"seed":          *seed,
		"seconds":       *seconds,
		"trace":         e.trace,
		"nproc":         e.nproc,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"git_commit":    gitCommit(root),
		"source_sha256": sourceDigest(root),
		"inputs_sha256": digest,
		"rounds":        o.rounds,
		"traced_rounds": o.traced,
	}
	for k, v := range o.info {
		prov[k] = v
	}
	provJSON, _ := json.Marshal(prov)
	fmt.Printf("# provenance %s\n", provJSON)

	if e.trace {
		table := summarizeSpans(o)
		path := filepath.Join(mkdir(filepath.Join(build, "spans")), fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		if err := WriteSpans(path, o.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write spans:", err)
			return 1
		}
		fmt.Printf("# spans: %d written to %s\n", len(o.spans), path)
		fmt.Print(table)
	}

	errorRate := 0.0
	if o.attempted > 0 {
		errorRate = float64(o.failed) / float64(o.attempted)
	}
	fmt.Printf("%-30s %14.6g %s  (%d failed of %d attempted)\n", "error_rate", errorRate, "ratio", o.failed, o.attempted)
	defs, values := endToEnd, o.e2e
	if e.trace {
		defs, values = perLayer, o.layer
	} else {
		for _, d := range endToEnd {
			if _, ok := values[d.name]; !ok {
				fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", *workload, d.name)
				return 1
			}
		}
	}
	metrics := map[string]any{}
	for _, d := range defs {
		v := values[d.name]
		fmt.Printf("%-30s %14.6g %s\n", d.name, v, d.unit)
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	correct := o.failed == 0 && o.attempted > 0
	res, _ := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": max(o.attempted, 1),
		"failed":    o.failed,
		"metrics":   metrics,
	})
	fmt.Println(string(res))
	if !correct {
		return 1
	}
	return 0
}

func mkdir(dir string) string {
	os.MkdirAll(dir, 0o755)
	return dir
}

func summarizeFile(path string) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer f.Close()
	spans, err := ReadSpans(bufio.NewReader(f))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	roots := map[uint64]bool{}
	for _, s := range spans {
		if s.Parent == 0 {
			roots[s.ID] = true
		}
	}
	o := newOutcome()
	o.spans, o.traced = spans, len(roots)
	fmt.Print(summarizeSpans(o))
	return 0
}

// resetPeakRSS restarts the kernel's peak-RSS count, so that peakRSSMB
// reads the peak of one round; where the kernel refuses, the peak is the
// process's.
func resetPeakRSS() { os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / 1e6
}

// gitCommit names the checked-out commit, or "unknown" outside a git
// work tree; sourceDigest identifies the sources either way.
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "-C", root, "rev-parse", "HEAD")
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and go.mod under root, by path.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != root) {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00", rel)
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

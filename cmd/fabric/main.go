// Command fabric drives the distributed sweep tier: a coordinator that
// leases (cell, seed-range) shards of one experiment spec to worker
// processes, workers that run leased shards through the engine, and a
// merge that folds shard artifacts into the canonical record stream and
// report — byte-identical to a serial single-process run, because every
// trial is a pure function of (protocol, scenario, n, trial).
//
// Usage:
//
//	fabric coordinate -spec spec.json -checkpoint DIR [-addr :7600]
//	       [-shard-trials K] [-lease-ttl 30s] [-out merged.jsonl]
//	       [-report report.json]
//	fabric work -coordinator http://host:7600 [-name w1]
//	       [-trial-workers N] [-poll 200ms] [-max-idle 2m] [-chaos SPEC]
//	fabric merge -spec spec.json [-out merged.jsonl] [-report report.json]
//	       SHARD-FILE...
//
// The spec file is the same JSON the experiment service accepts as a
// job (protocols, sizes, trials, scenario, metrics, max_size).
//
// coordinate serves the lease protocol and /v1/stats, journals shard
// completions to the checkpoint directory, writes -out/-report the
// moment the last shard lands, and keeps serving until SIGTERM (so
// late worker polls see "done", and stats stay scrapeable). Rerunning
// coordinate with the same spec and checkpoint resumes: finished shards
// are never re-leased. work exits 0 when the sweep is done. merge runs
// offline over shard files (gzip or plain JSONL).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"repro"
	"repro/internal/chaos"
	"repro/internal/fabric"
	"repro/internal/plan"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch os.Args[1] {
	case "coordinate":
		err = coordinate(ctx, os.Args[2:])
	case "work":
		err = work(ctx, os.Args[2:])
	case "merge":
		err = merge(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "fabric: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fabric %s: %v\n", os.Args[1], err)
		if errors.Is(err, fabric.ErrCoordinatorUnreachable) {
			fmt.Fprintln(os.Stderr, "fabric work: giving up — coordinator unreachable past the -max-idle budget")
			os.Exit(3)
		}
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  fabric coordinate -spec spec.json -checkpoint DIR [-addr :7600] [-shard-trials K] [-lease-ttl 30s] [-out merged.jsonl] [-report report.json]
  fabric work -coordinator URL [-name NAME] [-trial-workers N] [-poll 200ms] [-max-idle 2m] [-chaos SPEC]
  fabric merge -spec spec.json [-out merged.jsonl] [-report report.json] SHARD-FILE...`)
}

// readSpec loads and validates a spec file.
func readSpec(path string) (plan.Spec, error) {
	var spec plan.Spec
	if path == "" {
		return spec, fmt.Errorf("-spec is required")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("parse %s: %w", path, err)
	}
	if err := spec.Validate(); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

func coordinate(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("coordinate", flag.ExitOnError)
	specPath := fs.String("spec", "", "experiment spec JSON file (required)")
	addr := fs.String("addr", "127.0.0.1:7600", "listen address")
	dir := fs.String("checkpoint", "", "checkpoint directory (required; reuse to resume)")
	shardTrials := fs.Int("shard-trials", 0, "trials per shard (0 = whole cells)")
	leaseTTL := fs.Duration("lease-ttl", 30*time.Second, "lease TTL; workers renew at TTL/3")
	outPath := fs.String("out", "", "write the merged record stream (JSONL) here when done")
	reportPath := fs.String("report", "", "write the merged report (JSON) here when done")
	fs.Parse(args)

	spec, err := readSpec(*specPath)
	if err != nil {
		return err
	}
	coord, err := fabric.NewCoordinator(fabric.CoordinatorConfig{
		Spec:        spec,
		ShardTrials: *shardTrials,
		LeaseTTL:    *leaseTTL,
		Dir:         *dir,
	})
	if err != nil {
		return err
	}
	defer coord.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: coord.Handler()}
	go srv.Serve(ln)
	defer srv.Close()

	st := coord.Stats()
	fmt.Printf("fabric coordinator listening on http://%s\n", ln.Addr())
	fmt.Printf("sweep %.12s…: %d shards (%d already done from checkpoint %s)\n",
		coord.SpecDigest(), st.Shards.Total, st.Shards.Done, *dir)

	if err := coord.Wait(ctx); err != nil {
		return err
	}

	// Every shard landed: materialize the merged artifacts immediately —
	// workers may still be polling; they'll see "done" and exit.
	if *outPath != "" || *reportPath != "" {
		merged, err := coord.Merged()
		if err != nil {
			return err
		}
		if *outPath != "" {
			if err := writeMerged(*outPath, merged); err != nil {
				return err
			}
			fmt.Printf("wrote %d records to %s\n", len(merged), *outPath)
		}
		if *reportPath != "" {
			if err := writeReport(*reportPath, spec, merged); err != nil {
				return err
			}
			fmt.Printf("wrote report to %s\n", *reportPath)
		}
	}
	st = coord.Stats()
	fmt.Printf("sweep complete: %d shards, %d records, leases issued=%d renewed=%d expired=%d reissued=%d\n",
		st.Shards.Done, st.RecordsMerged,
		st.Leases.Issued, st.Leases.Renewed, st.Leases.Expired, st.Leases.Reissued)

	// Keep serving "done" (and stats) until asked to stop.
	<-ctx.Done()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(shutdownCtx)
	return nil
}

func writeMerged(path string, recs []repro.TrialRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := repro.WriteTrialRecords(f, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeReport(path string, spec plan.Spec, recs []repro.TrialRecord) error {
	rep, err := spec.Experiment().ReportFromRecords(recs)
	if err != nil {
		return err
	}
	data, err := rep.JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func work(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("work", flag.ExitOnError)
	coordinator := fs.String("coordinator", "", "coordinator base URL (required)")
	name := fs.String("name", "", "worker name (default host:pid)")
	trialWorkers := fs.Int("trial-workers", 0, "shard-internal trial pool size (0 = all cores)")
	poll := fs.Duration("poll", 200*time.Millisecond, "lease poll interval")
	maxIdle := fs.Duration("max-idle", 2*time.Minute, "give up (exit 3) after this long without coordinator contact")
	chaosSpec := fs.String("chaos", "", "seeded fault plan, e.g. seed=7,drop=0.05,latency=0.2,crash=worker.ran@2 (testing)")
	fs.Parse(args)

	if *name == "" {
		host, _ := os.Hostname()
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	var injector *chaos.Injector
	if *chaosSpec != "" {
		cfg, err := chaos.ParseFlag(*chaosSpec)
		if err != nil {
			return fmt.Errorf("-chaos: %w", err)
		}
		injector = chaos.NewInjector(cfg)
		fmt.Printf("[%s] chaos enabled: %s\n", *name, *chaosSpec)
	}
	return fabric.Work(ctx, fabric.WorkerConfig{
		Coordinator:  *coordinator,
		Name:         *name,
		TrialWorkers: *trialWorkers,
		Poll:         *poll,
		MaxIdle:      *maxIdle,
		Chaos:        injector,
		Log: func(format string, a ...any) {
			fmt.Printf("[%s] %s\n", *name, fmt.Sprintf(format, a...))
		},
	})
}

func merge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	specPath := fs.String("spec", "", "experiment spec JSON file (required)")
	outPath := fs.String("out", "", "write the merged record stream (JSONL) here; default stdout")
	reportPath := fs.String("report", "", "write the merged report (JSON) here")
	fs.Parse(args)

	spec, err := readSpec(*specPath)
	if err != nil {
		return err
	}
	paths, err := expandShardArgs(fs.Args())
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no shard files given")
	}
	merged, err := fabric.MergeFiles(spec, paths)
	if err != nil {
		return err
	}

	if *outPath != "" {
		if err := writeMerged(*outPath, merged); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d records to %s\n", len(merged), *outPath)
	} else {
		if err := repro.WriteTrialRecords(os.Stdout, merged); err != nil {
			return err
		}
	}
	if *reportPath != "" {
		if err := writeReport(*reportPath, spec, merged); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote report to %s\n", *reportPath)
	}
	return nil
}

// expandShardArgs resolves shard arguments: files pass through,
// directories expand to their *.jsonl / *.jsonl.gz entries, sorted.
func expandShardArgs(args []string) ([]string, error) {
	var out []string
	for _, a := range args {
		info, err := os.Stat(a)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			out = append(out, a)
			continue
		}
		entries, err := os.ReadDir(a)
		if err != nil {
			return nil, err
		}
		var names []string
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			name := e.Name()
			if filepath.Ext(name) == ".jsonl" || filepath.Ext(name) == ".gz" {
				names = append(names, filepath.Join(a, name))
			}
		}
		sort.Strings(names)
		out = append(out, names...)
	}
	return out, nil
}

package repro_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata golden files")

// goldenReport is the fixed experiment behind the golden files: small
// enough to run in milliseconds, rich enough to cover missing cells (the
// capped [28] row), exponent fits and the scenario block.
func goldenReport(t *testing.T) *repro.Report {
	t.Helper()
	rep, err := repro.NewExperiment().
		ProtocolNames("yokota", "ppl").
		Sizes(8, 16).
		Trials(2).
		MaxSizeFor("[28] Yokota et al.", 8).
		Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestReportGolden -update .` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestReportGoldenJSON pins the exact JSON artifact bytes — CI consumers
// and BENCH trajectories parse these.
func TestReportGoldenJSON(t *testing.T) {
	data, err := goldenReport(t).JSON()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "report.json", data)

	// The artifact must round-trip through the public types.
	var back repro.Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Rows) != 2 || back.Trials != 2 {
		t.Fatalf("round-tripped report %+v", back)
	}
}

// TestReportGoldenCSV pins the exact CSV artifact bytes.
func TestReportGoldenCSV(t *testing.T) {
	data, err := goldenReport(t).CSV()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "report.csv", data)

	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	// Header + one record per executed cell: yokota capped to n=8, ppl at
	// both sizes.
	if len(lines) != 4 {
		t.Fatalf("CSV has %d lines:\n%s", len(lines), data)
	}
	if !strings.HasPrefix(lines[0], "protocol,n,trials,failures,steps_mean") {
		t.Fatalf("CSV header: %s", lines[0])
	}
}

// TestReportGoldenMarkdown pins the exact Markdown bytes: the steps table,
// the size labels, the Table 1 summary and the exponent formatting.
func TestReportGoldenMarkdown(t *testing.T) {
	checkGolden(t, "report.md", []byte(goldenReport(t).Markdown()))
}

// failureReport is a report whose every trial fails: a 1-step budget
// cannot reach S_PL, so each cell has trials but zero converged ones.
func failureReport(t *testing.T) *repro.Report {
	t.Helper()
	rep, err := repro.NewExperiment().
		ProtocolNames("ppl").
		Sizes(8, 16).
		Trials(2).
		Scenario(repro.Scenario{Budget: repro.Budget{MaxSteps: 1}}).
		Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestReportGoldenFailureOnly pins the rendering of cells with zero
// converged trials: summaries are explicit nulls in JSON and empty fields
// in CSV — never stale zeros that read like measured values.
func TestReportGoldenFailureOnly(t *testing.T) {
	rep := failureReport(t)
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "report_failed.json", data)
	if !strings.Contains(string(data), `"mean": null`) {
		t.Fatalf("failure-only summary not null in JSON:\n%s", data)
	}
	var back repro.Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if c := back.Rows[0].Cells[0]; c.Failures != 2 || c.Steps.Count != 0 || c.Steps.Mean != 0 {
		t.Fatalf("null summaries did not round-trip to zero values: %+v", c)
	}

	csvData, err := rep.CSV()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "report_failed.csv", csvData)
	lines := strings.Split(strings.TrimSpace(string(csvData)), "\n")
	if len(lines) != 3 {
		t.Fatalf("failure CSV:\n%s", csvData)
	}
	// protocol,n,trials,failures, then 7 empty statistic fields, then the
	// (empty) exponent.
	if !strings.Contains(lines[1], ",2,2,,,,,,,,") {
		t.Fatalf("failure CSV row carries non-empty statistics: %q", lines[1])
	}

	md := rep.Markdown()
	if !strings.Contains(md, "| — |") {
		t.Fatalf("failure-only cells must render as missing in markdown:\n%s", md)
	}
}

// TestReportMarkdownShape covers the rendered layout: heading per
// scenario, the escaped |Q| column, missing cells for the capped row, and
// the em-dash for an unfittable exponent.
func TestReportMarkdownShape(t *testing.T) {
	md := goldenReport(t).Markdown()
	for _, want := range []string{
		"### Mean convergence steps (random adversarial starts)",
		"### Table 1 reproduction",
		`\|Q\|(n=16)`,
		"| — |",
		"Trials per cell: 2.",
	} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
	if strings.Contains(md, " |Q|(") {
		t.Fatalf("unescaped |Q| header:\n%s", md)
	}
}

// TestReportStepsTableRendering renders one steps line with a measured
// cell next to a cell without data: the header names each protocol, the
// measured mean is printed and the empty cell renders as —.
func TestReportStepsTableRendering(t *testing.T) {
	rep := &repro.Report{
		Sizes: []int{8},
		Rows: []repro.ReportRow{
			{Protocol: repro.ProtocolInfo{Name: "A"}, Cells: []repro.ReportCell{{N: 8, Steps: repro.Summary{Count: 1, Mean: 100}}}},
			{Protocol: repro.ProtocolInfo{Name: "B"}, Cells: []repro.ReportCell{{N: 8}}},
		},
	}
	want := "" +
		"| n | A | B |\n" +
		"|---|---|---|\n" +
		"| 8 | 100 | — |\n"
	if md := rep.Markdown(); !strings.Contains(md, want) {
		t.Fatalf("steps table rendering:\n--- got ---\n%s--- want ---\n%s", md, want)
	}
}

// TestReportStepsTableActualSizes pins the n-column rule: a size-adjusting
// protocol (orient bumps n=2→3, the mod-k baseline bumps even sizes) is
// labeled with the size its trials actually ran at, not the requested
// one; lines where protocols adjusted differently list every actual size,
// and lines without data fall back to the request and render — cells.
func TestReportStepsTableActualSizes(t *testing.T) {
	measured := func(n int, mean float64) repro.ReportCell {
		return repro.ReportCell{N: n, Steps: repro.Summary{Count: 1, Mean: mean}}
	}
	rep := &repro.Report{
		Sizes: []int{8, 16, 32},
		Rows: []repro.ReportRow{
			{Protocol: repro.ProtocolInfo{Name: "[5]"}, Cells: []repro.ReportCell{measured(9, 100), measured(17, 200), {N: 33}}},
			{Protocol: repro.ProtocolInfo{Name: "P_PL"}, Cells: []repro.ReportCell{measured(8, 50), measured(16, 150), {N: 32}}},
		},
	}
	want := "" +
		"| n | [5] | P_PL |\n" +
		"|---|---|---|\n" +
		"| 8/9 | 100 | 50 |\n" +
		"| 16/17 | 200 | 150 |\n" +
		"| 32 | — | — |\n"
	if md := rep.Markdown(); !strings.Contains(md, want) {
		t.Fatalf("steps table drifted:\n--- got ---\n%s--- want ---\n%s", md, want)
	}

	// A single size-adjusting protocol: the line label is the actual size.
	rep.Sizes, rep.Rows = []int{8}, rep.Rows[:1]
	if md := rep.Markdown(); !strings.Contains(md, "| 9 | 100 |") || strings.Contains(md, "| 8 |") {
		t.Fatalf("requested size leaked into a size-adjusted line:\n%s", md)
	}
}

// syntheticReport replays hand-made records through ReportFromRecords:
// one trial per size of the registered protocol name, converging after
// steps[n] steps, or failing where steps has no entry.
func syntheticReport(t *testing.T, name string, sizes []int, steps map[int]uint64) *repro.Report {
	t.Helper()
	p, err := repro.NewProtocol(name)
	if err != nil {
		t.Fatal(err)
	}
	var recs []repro.TrialRecord
	for _, n := range sizes {
		s, ok := steps[n]
		recs = append(recs, repro.TrialRecord{Protocol: p.Info().Name, N: n, Steps: s, Stabilized: s, Converged: ok})
	}
	rep, err := repro.NewExperiment().ProtocolNames(name).Sizes(sizes...).Trials(1).ReportFromRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestReportSummaryTable pins the Table 1 layout: the escaped \|Q\|
// header at the last requested size, the paper columns, the fitted
// exponent, and — for a row too small to fit.
func TestReportSummaryTable(t *testing.T) {
	md := syntheticReport(t, "yokota", []int{8, 16}, map[int]uint64{8: 100, 16: 420}).Markdown()
	want := "" +
		"| protocol | assumption | paper time | measured exponent | paper states | \\|Q\\|(n=16) |\n" +
		"|---|---|---|---|---|---|\n" +
		"| [28] Yokota et al. | knowledge N = n+O(n) | Θ(n²) | n^2.07 | O(n) | 792 |\n"
	if !strings.Contains(md, want) {
		t.Fatalf("summary table drifted:\n--- got ---\n%s--- want ---\n%s", md, want)
	}
	md = syntheticReport(t, "yokota", []int{8}, map[int]uint64{8: 100}).Markdown()
	if !strings.Contains(md, "| Θ(n²) | — |") {
		t.Fatalf("missing no-fit placeholder:\n%s", md)
	}
}

// TestReportExponentFit fits mean steps against n on synthetic cells: an
// exact n² law fits exponent 2.
func TestReportExponentFit(t *testing.T) {
	sizes := []int{16, 32, 64, 128}
	steps := map[int]uint64{}
	for _, n := range sizes {
		steps[n] = uint64(n * n)
	}
	row := syntheticReport(t, "ppl", sizes, steps).Rows[0]
	if !row.ExponentOK || math.Abs(row.Exponent-2) > 1e-9 {
		t.Fatalf("fit = (%v, %v), want (2, true)", row.Exponent, row.ExponentOK)
	}
}

// TestReportExponentNoData pins the "no data" contract: fewer than two
// sizes with data yield ExponentOK=false and a — in the summary table,
// never an ambiguous zero; a genuine flat fit is a real zero.
func TestReportExponentNoData(t *testing.T) {
	for name, steps := range map[string]map[int]uint64{
		"all failed":      {},
		"one size":        {8: 100},
		"zero steps only": {8: 0, 16: 0},
	} {
		rep := syntheticReport(t, "ppl", []int{8, 16}, steps)
		if row := rep.Rows[0]; row.ExponentOK || row.Exponent != 0 {
			t.Fatalf("%s: fit = (%v, %v), want (0, false)", name, row.Exponent, row.ExponentOK)
		}
		if md := rep.Markdown(); !strings.Contains(md, "| O(n² log n) | — |") {
			t.Fatalf("%s: missing no-fit placeholder:\n%s", name, md)
		}
	}
	row := syntheticReport(t, "ppl", []int{8, 16}, map[int]uint64{8: 100, 16: 100}).Rows[0]
	if !row.ExponentOK || math.Abs(row.Exponent) > 1e-9 {
		t.Fatalf("flat fit = (%v, %v), want (0, true)", row.Exponent, row.ExponentOK)
	}
}

// TestReportCollidingSizes is the regression test of the NaN fit: angluin
// bumps both requested sizes 8 and 9 to n=9, so only one distinct size
// remains. The fit must report no data, and every format must render.
func TestReportCollidingSizes(t *testing.T) {
	rep, err := repro.NewExperiment().ProtocolNames("angluin").Sizes(8, 9).Trials(2).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if row := rep.Rows[0]; row.ExponentOK || row.Cells[0].N != 9 || row.Cells[1].N != 9 {
		t.Fatalf("row = %+v, want two n=9 cells and no fit", row)
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"exponent_ok": false`) {
		t.Fatalf("JSON does not mark the fit as missing:\n%s", data)
	}
	if md := rep.Markdown(); !strings.Contains(md, "| Θ(n³) | — |") {
		t.Fatalf("markdown does not render the missing fit as —:\n%s", md)
	}
	csvData, err := rep.CSV()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(csvData)), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV:\n%s", csvData)
	}
	for _, line := range lines[1:] {
		if !strings.HasSuffix(line, ",") {
			t.Fatalf("CSV exponent field not empty: %q", line)
		}
	}
}

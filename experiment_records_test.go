package repro

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// replayExperiment returns the experiment configuration shared by the
// run and replay sides of the ReportFromRecords tests.
func replayExperiment() *Experiment {
	return NewExperiment().
		ProtocolNames("angluin", "fj").
		Sizes(8, 16).
		Trials(3).
		Scenario(Scenario{Faults: []Fault{{AtStep: 50, Agents: 2}}}).
		Metrics(MeanOf("recovery_steps"), CountOf("steps")).
		// MaxSizeFor matches ProtocolInfo.Name, the Table 1 display name.
		MaxSizeFor("[15] Fischer–Jiang", 8)
}

func TestReportFromRecordsMatchesRun(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	rep, err := replayExperiment().Sinks(sink).Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want, err := rep.JSON()
	if err != nil {
		t.Fatalf("rep.JSON: %v", err)
	}

	recs, err := ReadTrialRecords(&buf)
	if err != nil {
		t.Fatalf("ReadTrialRecords: %v", err)
	}
	replayed, err := replayExperiment().ReportFromRecords(recs)
	if err != nil {
		t.Fatalf("ReportFromRecords: %v", err)
	}
	got, err := replayed.JSON()
	if err != nil {
		t.Fatalf("replayed.JSON: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("replayed report differs from run report:\n--- run ---\n%s\n--- replay ---\n%s", want, got)
	}

	// The renderers must agree too — the service serves all three.
	md1, md2 := rep.Markdown(), replayed.Markdown()
	if md1 != md2 {
		t.Fatal("replayed Markdown differs from run Markdown")
	}
	csv1, err := rep.CSV()
	if err != nil {
		t.Fatalf("rep.CSV: %v", err)
	}
	csv2, err := replayed.CSV()
	if err != nil {
		t.Fatalf("replayed.CSV: %v", err)
	}
	if !bytes.Equal(csv1, csv2) {
		t.Fatal("replayed CSV differs from run CSV")
	}
}

func TestReportFromRecordsRejectsPartialArtifacts(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	if _, err := replayExperiment().Sinks(sink).Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	recs, err := ReadTrialRecords(&buf)
	if err != nil {
		t.Fatalf("ReadTrialRecords: %v", err)
	}
	if _, err := replayExperiment().ReportFromRecords(recs[:len(recs)-1]); err == nil {
		t.Fatal("ReportFromRecords accepted a partial record set")
	}
	if _, err := replayExperiment().ReportFromRecords(nil); err == nil {
		t.Fatal("ReportFromRecords accepted an empty record set")
	}

	// An identical duplicate is a straggler's harmless second copy; a
	// conflicting one is a determinism violation, whichever copy comes last.
	if _, err := replayExperiment().ReportFromRecords(append(recs, recs[0])); err != nil {
		t.Fatalf("ReportFromRecords rejected an identical duplicate: %v", err)
	}
	conflict := recs[0]
	conflict.Steps += 17
	if _, err := replayExperiment().ReportFromRecords(append(recs, conflict)); err == nil || !strings.Contains(err.Error(), "conflicting duplicate") {
		t.Fatalf("ReportFromRecords accepted a conflicting duplicate (err=%v)", err)
	}
}

package repro

import (
	"bytes"
	"fmt"
	"io"
)

// MergeShards folds shard record streams — JSONL readers, gzip-compressed
// or plain, in any order, each holding any subset of the experiment's
// trials — into the experiment's canonical record order: protocol row
// order, then size order, then trial order, as Experiment.Run streams
// them. This is the merge half of the distributed sweep fabric: every
// trial is a pure function of (protocol, scenario, n, trial), so the
// merged stream — and the Report built from it — is byte-identical to
// the serial run's. Every non-skipped cell must be fully covered, so a
// partial shard set cannot silently merge into a shorter stream. An
// identical duplicate (a re-issued straggler shard) is dropped; a
// conflicting duplicate or a record outside the matrix is an error.
func MergeShards(e *Experiment, shards ...io.Reader) ([]TrialRecord, error) {
	if err := e.validate(); err != nil {
		return nil, err
	}
	x := newRecordIndex(e)
	for si, r := range shards {
		err := DecodeTrialRecords(r, func(rec TrialRecord) error {
			if err := x.add(rec); err != nil {
				return fmt.Errorf("repro: shard %d: %w", si, err)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return x.span(0, len(x.recs))
}

// WriteTrialRecords emits records as canonical JSONL — one compact JSON
// object per record, newline-terminated, in slice order. Writing the
// output of MergeShards produces the byte-identical artifact a serial
// single-worker run would have streamed.
func WriteTrialRecords(w io.Writer, recs []TrialRecord) error {
	for _, rec := range recs {
		line, err := encodeRecord(rec)
		if err != nil {
			return err
		}
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}

// cellID names one cell's records: (protocol display name, FixSize-adjusted
// n), the identity TrialRecords carry.
type cellID struct {
	proto string
	n     int
}

// recordIndex slots records into an experiment's matrix by (cell, trial)
// — the one matching rule of MergeShards and ReportFromRecords. Slots
// are laid out in plan order, so a fully covered index is the canonical
// record stream; two requested sizes FixSize-ing to one n share a cell.
type recordIndex struct {
	plan   []planCell
	trials int
	base   map[cellID]int // first slot of each cell
	recs   []TrialRecord  // empty slots hold just the (cell, trial) key
	filled []bool
}

func newRecordIndex(e *Experiment) *recordIndex {
	x := &recordIndex{plan: e.plan(), trials: e.trials, base: make(map[cellID]int)}
	for _, c := range x.plan {
		if _, dup := x.base[c.id()]; c.skip || dup {
			continue
		}
		x.base[c.id()] = len(x.recs)
		for t := 0; t < e.trials; t++ {
			x.recs = append(x.recs, TrialRecord{Protocol: c.info.Name, N: c.n, Trial: t})
		}
	}
	x.filled = make([]bool, len(x.recs))
	return x
}

// add slots rec. A duplicate with identical canonical bytes (a re-issued
// straggler shard landing twice) is dropped; a conflicting one means some
// worker broke determinism, which must surface, never be papered over.
func (x *recordIndex) add(rec TrialRecord) error {
	base, ok := x.base[cellID{rec.Protocol, rec.N}]
	if !ok || rec.Trial < 0 || rec.Trial >= x.trials {
		return fmt.Errorf("record (%s, n=%d, trial %d) is outside the experiment's matrix", rec.Protocol, rec.N, rec.Trial)
	}
	i := base + rec.Trial
	if !x.filled[i] {
		x.recs[i], x.filled[i] = rec, true
		return nil
	}
	have, err := encodeRecord(x.recs[i])
	if err != nil {
		return err
	}
	got, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	if !bytes.Equal(have, got) {
		return fmt.Errorf("conflicting duplicate for (%s, n=%d, trial %d) — determinism violation", rec.Protocol, rec.N, rec.Trial)
	}
	return nil
}

// span returns the records of slots [lo, hi), or an error naming the
// first missing trial.
func (x *recordIndex) span(lo, hi int) ([]TrialRecord, error) {
	for i := lo; i < hi; i++ {
		if !x.filled[i] {
			k := x.recs[i]
			return nil, fmt.Errorf("repro: records missing trial %d of cell (%s, n=%d)", k.Trial, k.Protocol, k.N)
		}
	}
	return x.recs[lo:hi], nil
}

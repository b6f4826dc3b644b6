package repro_test

import (
	"bytes"
	"compress/gzip"
	"errors"
	"testing"

	"repro"
)

// FuzzDecodeTrialRecords feeds arbitrary bytes — plain JSONL, gzip
// members, torn streams, garbage — to the record parser. It must never
// panic. Whatever decodes must survive the canonical round trip: writing
// the records out and reading them back gives records whose canonical
// bytes (the form MergeShards compares records by) are unchanged, plain
// or gzipped. And the gzipped form cut short anywhere past its magic must
// fail as ErrTruncatedRecords, never decode as a shorter stream.
func FuzzDecodeTrialRecords(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		recs, err := repro.ReadTrialRecords(bytes.NewReader(data))
		if err != nil {
			return
		}
		canon := canonicalRecords(t, recs)

		var gz bytes.Buffer
		zw := gzip.NewWriter(&gz)
		zw.Write(canon)
		if err := zw.Close(); err != nil {
			t.Fatalf("gzip: %v", err)
		}
		for _, in := range [][]byte{canon, gz.Bytes()} {
			again, err := repro.ReadTrialRecords(bytes.NewReader(in))
			if err != nil {
				t.Fatalf("re-decoding canonical records: %v", err)
			}
			if got := canonicalRecords(t, again); !bytes.Equal(got, canon) {
				t.Fatalf("round trip changed the records:\nwas: %q\nnow: %q", canon, got)
			}
		}

		whole := gz.Bytes()
		torn := whole[:2+int(cut)%(len(whole)-2)]
		if _, err := repro.ReadTrialRecords(bytes.NewReader(torn)); !errors.Is(err, repro.ErrTruncatedRecords) {
			t.Fatalf("gzip cut to %d of %d bytes: err = %v, want ErrTruncatedRecords", len(torn), len(whole), err)
		}
	})
}

// canonicalRecords returns the canonical JSONL bytes of recs.
func canonicalRecords(t *testing.T, recs []repro.TrialRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := repro.WriteTrialRecords(&buf, recs); err != nil {
		t.Fatalf("WriteTrialRecords: %v", err)
	}
	return buf.Bytes()
}

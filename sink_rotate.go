package repro

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// RotateOptions configures a RotatingJSONLSink.
type RotateOptions struct {
	// MaxBytes rotates to a fresh segment once the current one holds at
	// least this many bytes of encoded records (pre-compression); 0 selects
	// DefaultSegmentBytes. A single record larger than the limit still goes
	// out whole — segments are record-aligned, records are never split.
	MaxBytes int64
	// Compress gzip-compresses each segment (and appends ".gz" to the
	// segment names). Every finalized segment is an independently valid
	// gzip stream, so consumers can decompress segments in isolation.
	Compress bool
}

// DefaultSegmentBytes is the segment-size limit a zero RotateOptions.MaxBytes
// selects: 64 MiB of encoded records per segment.
const DefaultSegmentBytes int64 = 64 << 20

// RotatingJSONLSink streams TrialRecords as JSON Lines across a sequence
// of bounded segment files — the servable artifact form for sweeps whose
// record volume must not accumulate into one unbounded file. Segments are
// named from the base path by inserting a zero-padded index before the
// extension ("records.jsonl" → "records-00000.jsonl",
// "records-00001.jsonl", …; with compression each gains a ".gz" suffix),
// rotate at a configurable byte limit on record boundaries, and are
// finalized — buffered data flushed, gzip stream closed, file fsynced and
// closed — both at rotation and in Close.
//
// Close finalizes the last segment even when an earlier Record call
// failed mid-write: whatever reached the sink durably lands on disk, so
// an aborted sweep still leaves every segment flushed, fsynced and
// well-formed up to the failure point. Record and Close are safe for
// concurrent use, like JSONLSink.
type RotatingJSONLSink struct {
	opts RotateOptions
	dir  string
	stem string // base name without extension
	ext  string // extension including the dot, ".jsonl" typically

	mu       sync.Mutex
	file     segmentFile
	gz       *gzip.Writer
	bw       *bufio.Writer
	segIdx   int
	segBytes int64
	segments []string
	count    int64
	closed   bool
	writeErr error // sticky first mid-write error; Close still finalizes

	// create opens a segment file; tests substitute failing writers to
	// exercise the finalize-on-error contract.
	create func(path string) (segmentFile, error)
}

// segmentFile is the slice of *os.File a segment needs: writes, a durable
// flush, and a close.
type segmentFile interface {
	io.Writer
	Sync() error
	Close() error
}

// CreateRotatingJSONL creates a rotating (and optionally gzip-compressed)
// JSONL sink writing segments derived from the base path: the first
// segment is created immediately, so artifact directories are visible as
// soon as the sink exists. The base path's directory must exist.
func CreateRotatingJSONL(base string, opts RotateOptions) (*RotatingJSONLSink, error) {
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = DefaultSegmentBytes
	}
	ext := filepath.Ext(base)
	stem := strings.TrimSuffix(filepath.Base(base), ext)
	if ext == "" {
		ext = ".jsonl"
	}
	s := &RotatingJSONLSink{
		opts: opts,
		dir:  filepath.Dir(base),
		stem: stem,
		ext:  ext,
		create: func(path string) (segmentFile, error) {
			return os.Create(path)
		},
	}
	if err := s.openSegment(); err != nil {
		return nil, err
	}
	return s, nil
}

// segmentPath returns the path of segment i.
func (s *RotatingJSONLSink) segmentPath(i int) string {
	name := fmt.Sprintf("%s-%05d%s", s.stem, i, s.ext)
	if s.opts.Compress {
		name += ".gz"
	}
	return filepath.Join(s.dir, name)
}

// openSegment opens the next segment file; callers hold the mutex (or own
// the sink exclusively, as in CreateRotatingJSONL).
func (s *RotatingJSONLSink) openSegment() error {
	path := s.segmentPath(s.segIdx)
	f, err := s.create(path)
	if err != nil {
		return err
	}
	s.file = f
	var w io.Writer = f
	if s.opts.Compress {
		s.gz = gzip.NewWriter(f)
		w = s.gz
	}
	s.bw = bufio.NewWriter(w)
	s.segBytes = 0
	s.segments = append(s.segments, path)
	return nil
}

// finalizeSegment flushes, closes the gzip stream, fsyncs and closes the
// current segment, returning the first error but attempting every step —
// a failed flush must not leave the file descriptor open or unsynced.
func (s *RotatingJSONLSink) finalizeSegment() error {
	if s.file == nil {
		return nil
	}
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	keep(s.bw.Flush())
	if s.gz != nil {
		keep(s.gz.Close())
		s.gz = nil
	}
	keep(s.file.Sync())
	keep(s.file.Close())
	s.file = nil
	s.bw = nil
	return first
}

// Record implements Sink: it encodes rec onto the current segment,
// rotating first when the segment is full. After a mid-write error the
// sink goes inert — further Records return the same error — but Close
// still finalizes the last segment.
func (s *RotatingJSONLSink) Record(rec TrialRecord) error {
	line, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("repro: RotatingJSONLSink is closed")
	}
	if s.writeErr != nil {
		return s.writeErr
	}
	size := int64(len(line))
	if s.segBytes > 0 && s.segBytes+size > s.opts.MaxBytes {
		if err := s.finalizeSegment(); err != nil {
			s.writeErr = err
			return err
		}
		s.segIdx++
		if err := s.openSegment(); err != nil {
			s.writeErr = err
			return err
		}
	}
	if _, err := s.bw.Write(line); err != nil {
		s.writeErr = err
		return err
	}
	s.segBytes += size
	s.count++
	return nil
}

// Count returns the number of records written so far.
func (s *RotatingJSONLSink) Count() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Segments returns the segment paths created so far, in write order.
func (s *RotatingJSONLSink) Segments() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.segments...)
}

// Close implements Sink: it finalizes the last segment — flush, gzip
// trailer, fsync, close — unconditionally, including after a mid-write
// error (the error-recovery half of the Sink contract: an aborting
// Experiment still Closes every sink, and whatever was durably written
// must survive). Close returns the sticky write error when one occurred,
// otherwise the first finalization error. Closing twice is a no-op.
func (s *RotatingJSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	ferr := s.finalizeSegment()
	if s.writeErr != nil {
		return s.writeErr
	}
	return ferr
}

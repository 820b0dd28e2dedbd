// Streaming JSONL instance format (mpss-trace-v1), built so million-job
// traces never have to exist in memory at once: the header carries the
// instance-wide processor count, then every line is one job, and jobs
// are required to arrive in nondecreasing release order — exactly the
// property that lets a consumer cut separable components on the fly
// (the moment every window opened so far has closed, everything read so
// far is a finished component and can be dispatched before the rest of
// the trace is even parsed).
//
//	{"format":"mpss-trace-v1","m":8}
//	{"id":1,"release":0.31,"deadline":1.02,"work":0.5}
//	{"id":2,"release":0.47,"deadline":0.61,"work":0.1}
//	...
//
// The job lines reuse job.Job's JSON field names, so a line of a trace
// and an element of the in-memory instance format's "jobs" array are the
// same object.
//
// Job IDs must be unique within each separable component when the trace
// is solved streamed, and within the whole trace when it is solved as
// one instance: the solver rejects a repeated ID in the
// instance it solves with ErrInvalidInstance. The reader itself does not
// track IDs, so a streamed trace may reuse an ID in a later component.
package workload

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"mpss/internal/job"
)

// StreamFormat is the format tag of the trace header line.
const StreamFormat = "mpss-trace-v1"

type streamHeader struct {
	Format string `json:"format"`
	M      int    `json:"m"`
}

// IsStream reports whether data begins with an mpss-trace-v1 header
// line; a prefix of the input (the first line suffices) is enough. CLI
// tools use it to tell a streamed trace from the in-memory instance
// JSON, whose first byte opens an object with different fields.
func IsStream(data []byte) bool {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		data = data[:i]
	}
	var h streamHeader
	if err := json.Unmarshal(data, &h); err != nil {
		return false
	}
	return h.Format == StreamFormat
}

// StreamWriter writes a trace one job at a time.
type StreamWriter struct {
	bw    *bufio.Writer
	lastR float64
	wrote bool
}

// NewStreamWriter writes the header and returns a writer for the job
// lines. Call Flush when done; the writer does not own the underlying
// io.Writer.
func NewStreamWriter(w io.Writer, m int) (*StreamWriter, error) {
	if m < 1 {
		return nil, fmt.Errorf("workload: stream needs m >= 1, got %d", m)
	}
	sw := &StreamWriter{bw: bufio.NewWriterSize(w, 1<<16)}
	hdr, _ := json.Marshal(streamHeader{Format: StreamFormat, M: m})
	if _, err := sw.bw.Write(append(hdr, '\n')); err != nil {
		return nil, err
	}
	return sw, nil
}

// Write appends one job line. Jobs must be valid and arrive in
// nondecreasing release order — the writer enforces the invariant the
// reader relies on rather than producing a trace no reader will accept.
func (sw *StreamWriter) Write(j job.Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	if sw.wrote && j.Release < sw.lastR {
		return fmt.Errorf("workload: stream out of order: job %d releases at %v after a job releasing at %v",
			j.ID, j.Release, sw.lastR)
	}
	sw.lastR, sw.wrote = j.Release, true
	line, _ := json.Marshal(j)
	_, err := sw.bw.Write(append(line, '\n'))
	return err
}

// Flush flushes buffered lines to the underlying writer.
func (sw *StreamWriter) Flush() error { return sw.bw.Flush() }

// StreamReader reads a trace one job at a time.
type StreamReader struct {
	br    *bufio.Reader
	m     int
	line  int
	lastR float64
	read  bool
}

// NewStreamReader parses the header line and returns a reader positioned
// at the first job.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	sr := &StreamReader{br: bufio.NewReaderSize(r, 1<<16)}
	raw, err := sr.br.ReadBytes('\n')
	if err != nil && (err != io.EOF || len(raw) == 0) {
		return nil, fmt.Errorf("workload: reading stream header: %w", err)
	}
	var h streamHeader
	if err := json.Unmarshal(raw, &h); err != nil {
		return nil, fmt.Errorf("workload: malformed stream header: %w", err)
	}
	if h.Format != StreamFormat {
		return nil, fmt.Errorf("workload: stream format %q, want %q", h.Format, StreamFormat)
	}
	if h.M < 1 {
		return nil, fmt.Errorf("workload: stream header m = %d < 1", h.M)
	}
	sr.m = h.M
	sr.line = 1
	return sr, nil
}

// M returns the processor count from the header.
func (sr *StreamReader) M() int { return sr.m }

// Next returns the next job, or io.EOF when the trace is exhausted.
// Malformed lines, invalid jobs and release-order violations surface as
// errors annotated with the line number.
func (sr *StreamReader) Next() (job.Job, error) {
	for {
		raw, err := sr.br.ReadBytes('\n')
		sr.line++
		if len(bytes.TrimSpace(raw)) == 0 {
			if err != nil {
				return job.Job{}, io.EOF
			}
			continue // tolerate blank lines (trailing newline, hand edits)
		}
		var j job.Job
		if uerr := json.Unmarshal(raw, &j); uerr != nil {
			return job.Job{}, fmt.Errorf("workload: stream line %d: %w", sr.line, uerr)
		}
		if verr := j.Validate(); verr != nil {
			return job.Job{}, fmt.Errorf("workload: stream line %d: %w", sr.line, verr)
		}
		if sr.read && j.Release < sr.lastR {
			return job.Job{}, fmt.Errorf("workload: stream line %d: job %d releases at %v after a job releasing at %v (trace must be sorted by release)",
				sr.line, j.ID, j.Release, sr.lastR)
		}
		sr.lastR, sr.read = j.Release, true
		return j, nil
	}
}

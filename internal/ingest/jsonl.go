package ingest

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"
	"unicode/utf8"

	"github.com/wikistale/wikistale/internal/changecube"
)

// DefaultBatchSize is the maximum number of events a JSONLSource returns
// per Next call.
const DefaultBatchSize = 256

// JSONLSource reads events from a JSON-lines stream — the replay format
// for real dumps. One event per line; blank lines are skipped; a malformed
// line is a hard error (a dump replay should never silently drop data).
//
// With Follow enabled the source tails the stream like `tail -f`: on
// reaching the end it polls for more data instead of reporting io.EOF, and
// a trailing partial line (a write in progress) is held back until its
// newline arrives.
type JSONLSource struct {
	r       *bufio.Reader
	batch   int
	follow  bool
	poll    time.Duration
	pending []byte // the line being read; a partial final line is held back here in follow mode
	line    int

	// Resumable-position state: bytes fully consumed, and the length and
	// CRC of the last consumed line (newline included when present).
	offset  int64
	tailLen int
	tailCRC uint32
}

// NewJSONLSource returns a source over r with the default batch size.
func NewJSONLSource(r io.Reader) *JSONLSource {
	return &JSONLSource{r: bufio.NewReader(r), batch: DefaultBatchSize}
}

// ResumeJSONL returns a source positioned at pos, which must have come
// from a JSONLSource over the same stream. It seeks to the start of the
// checkpoint's tail line, re-reads it, and verifies its checksum — a feed
// file that was truncated or rewritten since the checkpoint fails loudly
// here instead of being replayed from the wrong byte.
func ResumeJSONL(r io.ReadSeeker, pos SourcePosition) (*JSONLSource, error) {
	if pos.Kind != "" && pos.Kind != "jsonl" {
		return nil, fmt.Errorf("ingest: resume: position kind %q is not a jsonl position", pos.Kind)
	}
	if pos.Offset < int64(pos.TailLen) || pos.TailLen < 0 {
		return nil, fmt.Errorf("ingest: resume: malformed position (offset %d, tail %d)", pos.Offset, pos.TailLen)
	}
	if _, err := r.Seek(pos.Offset-int64(pos.TailLen), io.SeekStart); err != nil {
		return nil, fmt.Errorf("ingest: resume: %w", err)
	}
	if pos.TailLen > 0 {
		tail := make([]byte, pos.TailLen)
		if _, err := io.ReadFull(r, tail); err != nil {
			return nil, fmt.Errorf("ingest: resume: feed shorter than checkpoint offset %d: %w", pos.Offset, err)
		}
		if crc := crc32.ChecksumIEEE(tail); crc != pos.TailCRC {
			return nil, fmt.Errorf("ingest: resume: tail line at offset %d has checksum %08x, checkpoint says %08x (feed rewritten?)",
				pos.Offset-int64(pos.TailLen), crc, pos.TailCRC)
		}
	}
	s := NewJSONLSource(r)
	s.offset = pos.Offset
	s.line = pos.Line
	s.tailLen = pos.TailLen
	s.tailCRC = pos.TailCRC
	return s, nil
}

// Position returns the resumable cursor after everything Next has
// returned. Call it between Next calls, from the consuming goroutine.
func (s *JSONLSource) Position() SourcePosition {
	return SourcePosition{
		Kind:    "jsonl",
		Offset:  s.offset,
		Line:    s.line,
		TailLen: s.tailLen,
		TailCRC: s.tailCRC,
	}
}

// SetBatchSize caps the number of events per Next call (minimum 1).
func (s *JSONLSource) SetBatchSize(n int) {
	if n < 1 {
		n = 1
	}
	s.batch = n
}

// Follow switches the source to tail mode, polling every interval for new
// data instead of ending at io.EOF.
func (s *JSONLSource) Follow(interval time.Duration) {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	s.follow = true
	s.poll = interval
}

// Next returns the next batch of events. It returns io.EOF when the stream
// is exhausted (never in follow mode, unless ctx ends first). When ctx
// ends mid-batch, the events parsed so far come back with ctx's error, so
// Position always covers exactly the events Next has returned.
func (s *JSONLSource) Next(ctx context.Context) ([]Event, error) {
	var out []Event
	for len(out) < s.batch {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		// ReadSlice returns bufio's own buffer; the line is copied into
		// pending, which is reused from line to line since decoding copies
		// every string out of it.
		chunk, err := s.r.ReadSlice('\n')
		s.pending = append(s.pending, chunk...)
		if errors.Is(err, bufio.ErrBufferFull) {
			continue // a line longer than the read buffer
		}
		complete := len(s.pending) > 0 && s.pending[len(s.pending)-1] == '\n'
		if complete || (err == io.EOF && !s.follow && len(s.pending) > 0) {
			line := s.pending
			s.pending = s.pending[:0]
			s.line++
			s.offset += int64(len(line))
			s.tailLen = len(line)
			s.tailCRC = crc32.ChecksumIEEE(line)
			ev, perr := parseEventLine(line)
			if perr != nil {
				if !errors.Is(perr, errBlankLine) {
					return nil, fmt.Errorf("ingest: line %d: %w", s.line, perr)
				}
			} else {
				out = append(out, ev)
			}
		}
		if err == nil {
			continue
		}
		if err != io.EOF {
			return out, err
		}
		// io.EOF: the underlying stream has no more data right now.
		if !s.follow {
			if len(out) > 0 {
				return out, nil
			}
			return nil, io.EOF
		}
		if len(out) > 0 {
			return out, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(s.poll):
		}
	}
	return out, nil
}

var errBlankLine = errors.New("blank line")

// parseEventLine decodes and validates one feed line. Lines in the exact
// shape WriteEvents writes take a hand-rolled fast path; every other line
// goes through encoding/json, so the accepted language and the decoded
// events are exactly encoding/json's (FuzzParseEventLine checks this).
func parseEventLine(line []byte) (Event, error) {
	line = bytes.TrimSpace(line)
	if len(line) == 0 {
		return Event{}, errBlankLine
	}
	ev, ok := parseCanonicalEvent(line)
	if !ok {
		ev = Event{}
		if err := json.Unmarshal(line, &ev); err != nil {
			return Event{}, err
		}
	}
	if err := ev.Validate(); err != nil {
		return Event{}, err
	}
	return ev, nil
}

// parseCanonicalEvent decodes a line in WriteEvents' shape: the Event
// fields in declaration order with the omitempty ones optional, no
// whitespace, strings of valid UTF-8 without escapes or control
// characters, and plain integer literals that fit. It reports false for
// any other line — not because the line is invalid, but because only
// encoding/json can say what it means.
func parseCanonicalEvent(line []byte) (ev Event, ok bool) {
	p := lineScanner{b: line}
	ok = p.key(`{"time":`) && p.int64(&ev.Time) &&
		p.key(`,"page":`) && p.str(&ev.Page) &&
		p.key(`,"template":`) && p.str(&ev.Template)
	if ok && p.key(`,"infobox":`) {
		var n int64
		ok = p.int64(&n) && int64(int(n)) == n
		ev.Infobox = int(n)
	}
	ok = ok && p.key(`,"property":`) && p.str(&ev.Property)
	if ok && p.key(`,"value":`) {
		ok = p.str(&ev.Value)
	}
	ok = ok && p.key(`,"kind":`) && p.kind(&ev.Kind)
	if ok && p.key(`,"bot":`) {
		switch {
		case p.key("true"):
			ev.Bot = true
		case p.key("false"):
		default:
			ok = false
		}
	}
	return ev, ok && p.key("}") && len(p.b) == 0
}

// lineScanner consumes a canonical event line from the front.
type lineScanner struct{ b []byte }

// key consumes lit if the line continues with it.
func (p *lineScanner) key(lit string) bool {
	if len(p.b) < len(lit) || string(p.b[:len(lit)]) != lit {
		return false
	}
	p.b = p.b[len(lit):]
	return true
}

// int64 consumes -?(0|[1-9][0-9]*) when it fits an int64.
func (p *lineScanner) int64(v *int64) bool {
	b := p.b
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	if len(b) == 0 || b[0] < '0' || b[0] > '9' {
		return false
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	var u uint64
	i := 0
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		if i > 0 && b[0] == '0' {
			return false // a leading zero
		}
		d := uint64(b[i] - '0')
		if u > (limit-d)/10 {
			return false
		}
		u = u*10 + d
	}
	if neg {
		*v = int64(-u)
	} else {
		*v = int64(u)
	}
	p.b = b[i:]
	return true
}

// raw consumes a string literal with no escapes, no control characters
// and valid UTF-8, and returns its content.
func (p *lineScanner) raw() ([]byte, bool) {
	if len(p.b) == 0 || p.b[0] != '"' {
		return nil, false
	}
	ascii := true
	for i := 1; i < len(p.b); i++ {
		switch c := p.b[i]; {
		case c == '"':
			s := p.b[1:i]
			if !ascii && !utf8.Valid(s) {
				return nil, false
			}
			p.b = p.b[i+1:]
			return s, true
		case c == '\\' || c < 0x20:
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

func (p *lineScanner) str(v *string) bool {
	s, ok := p.raw()
	*v = string(s)
	return ok
}

func (p *lineScanner) kind(v *changecube.ChangeKind) bool {
	s, ok := p.raw()
	for k := changecube.Update; ok && k <= changecube.Delete; k++ {
		if string(s) == k.String() {
			*v = k
			return true
		}
	}
	return false
}

// WriteEvents encodes events as JSON lines — the format JSONLSource reads.
func WriteEvents(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range events {
		if err := ev.Validate(); err != nil {
			return err
		}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

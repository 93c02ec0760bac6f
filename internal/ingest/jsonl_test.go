package ingest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/dataset"
	"github.com/wikistale/wikistale/internal/filter"
)

func sampleEvents() []Event {
	return []Event{
		{Time: 1000, Page: "Berlin", Template: "settlement", Property: "population", Value: "3644826", Kind: changecube.Update},
		{Time: 2000, Page: "Berlin", Template: "settlement", Property: "mayor", Value: "Müller", Kind: changecube.Create},
		{Time: 3000, Page: "2018-19 Handball-Bundesliga", Template: "sports season", Infobox: 1, Property: "matches", Value: "306", Kind: changecube.Update, Bot: true},
		{Time: 4000, Page: "Berlin", Template: "settlement", Property: "mayor", Kind: changecube.Delete},
	}
}

// TestJSONLRoundTrip: WriteEvents → JSONLSource must be lossless.
func TestJSONLRoundTrip(t *testing.T) {
	want := sampleEvents()
	var buf bytes.Buffer
	if err := WriteEvents(&buf, want); err != nil {
		t.Fatal(err)
	}
	src := NewJSONLSource(&buf)
	var got []Event
	for {
		batch, err := src.Next(context.Background())
		got = append(got, batch...)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("roundtrip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestJSONLBatchSize: Next must respect the configured cap.
func TestJSONLBatchSize(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteEvents(&buf, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	src := NewJSONLSource(&buf)
	src.SetBatchSize(3)
	batch, err := src.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 3 {
		t.Fatalf("batch size = %d, want 3", len(batch))
	}
	batch, err = src.Next(context.Background())
	if err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	if len(batch) != 1 {
		t.Fatalf("final batch size = %d, want 1", len(batch))
	}
}

// TestJSONLMalformedLine: a dump replay must fail loudly, with the line
// number, rather than dropping data.
func TestJSONLMalformedLine(t *testing.T) {
	input := `{"time":1000,"page":"a","template":"t","property":"p"}
this is not json
{"time":2000,"page":"b","template":"t","property":"p"}
`
	src := NewJSONLSource(strings.NewReader(input))
	_, err := src.Next(context.Background())
	if err == nil {
		t.Fatal("malformed line accepted")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error %q does not name line 2", err)
	}
}

// TestJSONLBlankLinesAndNoTrailingNewline: blank lines are skipped and a
// final line without a newline still parses in non-follow mode.
func TestJSONLBlankLinesAndNoTrailingNewline(t *testing.T) {
	input := "\n{\"time\":1000,\"page\":\"a\",\"template\":\"t\",\"property\":\"p\"}\n\n" +
		`{"time":2000,"page":"b","template":"t","property":"p"}` // no \n
	src := NewJSONLSource(strings.NewReader(input))
	var got []Event
	for {
		batch, err := src.Next(context.Background())
		got = append(got, batch...)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != 2 || got[0].Page != "a" || got[1].Page != "b" {
		t.Fatalf("got %+v", got)
	}
}

// growingReader mimics a file being appended to: Read drains what is
// buffered and reports io.EOF when nothing new has arrived yet.
type growingReader struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (g *growingReader) Read(p []byte) (int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.buf.Len() == 0 {
		return 0, io.EOF
	}
	return g.buf.Read(p)
}

func (g *growingReader) append(s string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.buf.WriteString(s)
}

// TestJSONLFollow: tail mode must hold back a partial trailing line until
// its newline arrives, then deliver the completed event, and end only on
// context cancellation.
func TestJSONLFollow(t *testing.T) {
	g := &growingReader{}
	g.append("{\"time\":1000,\"page\":\"a\",\"template\":\"t\",\"property\":\"p\"}\n" +
		`{"time":2000,"page":"b","templ`) // torn write
	src := NewJSONLSource(g)
	src.Follow(time.Millisecond)

	batch, err := src.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 1 || batch[0].Page != "a" {
		t.Fatalf("first batch = %+v, want the one complete line", batch)
	}

	g.append("ate\":\"t\",\"property\":\"p\"}\n")
	batch, err = src.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 1 || batch[0].Page != "b" {
		t.Fatalf("second batch = %+v, want the completed line", batch)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := src.Next(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("idle follow returned %v, want deadline exceeded", err)
	}
}

// TestEventValidate rejects the shapes a feed must never hand to staging.
func TestEventValidate(t *testing.T) {
	base := Event{Time: 1, Page: "p", Template: "t", Property: "x", Kind: changecube.Update}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid event rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Event){
		"empty page":     func(e *Event) { e.Page = "" },
		"empty template": func(e *Event) { e.Template = "" },
		"empty property": func(e *Event) { e.Property = "" },
		"negative box":   func(e *Event) { e.Infobox = -1 },
		"bad kind":       func(e *Event) { e.Kind = changecube.ChangeKind(99) },
	} {
		ev := base
		mutate(&ev)
		if err := ev.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// FuzzReadJSONL mirrors changecube.FuzzReadBinary for the streaming
// format: arbitrary bytes must either parse into events that re-encode
// cleanly or fail with an error — never panic.
func FuzzReadJSONL(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteEvents(&seed, sampleEvents())
	f.Add(seed.Bytes())
	f.Add([]byte("{\"time\":1}\n"))
	f.Add([]byte("\n\n"))
	f.Add([]byte(`{"time":1000,"page":"a","template":"t","property":"p"}`))
	f.Add([]byte("not json at all\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := NewJSONLSource(bytes.NewReader(data))
		var events []Event
		for {
			batch, err := src.Next(context.Background())
			events = append(events, batch...)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return // parse errors are expected on arbitrary input
			}
			if len(batch) == 0 {
				t.Fatal("empty batch without error")
			}
		}
		// Whatever parsed also validated, so it must re-encode cleanly.
		if err := WriteEvents(io.Discard, events); err != nil {
			t.Fatalf("parsed events failed to re-encode: %v", err)
		}
	})
}

// TestJSONLCorpusKeepsInfoboxes: a corpus written as a JSONL feed (what
// wikigen -jsonl and infoboxdump -jsonl write) and replayed through
// JSONLSource into Staging keeps every infobox, pages carrying several
// boxes of one template included, and the generated cube's funnel counts.
func TestJSONLCorpusKeepsInfoboxes(t *testing.T) {
	cube := smallCube(t)
	var buf bytes.Buffer
	if err := WriteEvents(&buf, CubeEvents(cube)); err != nil {
		t.Fatal(err)
	}
	cfg := filter.Default()
	st, err := NewStaging(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := NewJSONLSource(&buf)
	for {
		batch, err := src.Next(context.Background())
		if len(batch) > 0 {
			if _, err := st.AppendAt(batch, src.Position()); err != nil {
				t.Fatal(err)
			}
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	hs, stats, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := hs.Cube().NumEntities(), cube.NumEntities(); got != want {
		t.Errorf("replayed feed has %d entities, the generated cube %d", got, want)
	}
	_, want, err := filter.Apply(cube, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := inOut(stats), inOut(want); !reflect.DeepEqual(got, want) {
		t.Errorf("funnel mismatch:\nreplayed  %v\ngenerated %v", got, want)
	}
}

// decodeReference is the decoder the fast path must agree with:
// encoding/json plus Validate.
func decodeReference(line []byte) (Event, error) {
	var ev Event
	if err := json.Unmarshal(bytes.TrimSpace(line), &ev); err != nil {
		return Event{}, err
	}
	if err := ev.Validate(); err != nil {
		return Event{}, err
	}
	return ev, nil
}

// TestWriteEventsLinesTakeFastPath: every line WriteEvents writes for a
// generated corpus, and for events with and without each omitempty
// field, takes the fast path and decodes to the event written.
func TestWriteEventsLinesTakeFastPath(t *testing.T) {
	events := append(sampleEvents(), CubeEvents(smallCube(t))...)
	var buf bytes.Buffer
	if err := WriteEvents(&buf, events); err != nil {
		t.Fatal(err)
	}
	escaped := 0
	for i, line := range bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n")) {
		ev, ok := parseCanonicalEvent(line)
		if !ok {
			if !bytes.Contains(line, []byte(`\`)) {
				t.Fatalf("line %d has no escape but missed the fast path: %s", i+1, line)
			}
			escaped++
			continue
		}
		if ev != events[i] {
			t.Fatalf("line %d: fast path decoded %+v, wrote %+v", i+1, ev, events[i])
		}
	}
	if escaped > len(events)/100 {
		t.Fatalf("%d of %d lines missed the fast path", escaped, len(events))
	}
}

// FuzzParseEventLine: on any line, parseEventLine (fast path with
// encoding/json fallback) and encoding/json + Validate must both reject,
// or both accept and return the same event; and whatever the fast path
// accepts on its own, encoding/json decodes to the same event.
func FuzzParseEventLine(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteEvents(&seed, append(sampleEvents(), Event{Time: -5, Page: `a "quoted" <b> & c`, Template: "t", Property: "p", Value: " "}))
	for _, line := range bytes.Split(seed.Bytes(), []byte("\n")) {
		f.Add(line)
	}
	for _, line := range []string{
		`{"time":1,"page":"a","template":"t","property":"p","kind":"update"}`,
		`{"time":1,"page":"a","template":"t","infobox":0,"property":"p","value":"","kind":"update","bot":false}`,
		`{"time":1,"page":"a\"b","template":"t","property":"p","kind":"update"}`,
		`{"time":1,"page":"<b>","template":"t","property":"p","kind":"update"}`,
		"{\"time\":1,\"page\":\"a\xffb\",\"template\":\"t\",\"property\":\"p\",\"kind\":\"update\"}",
		"{\"time\":1,\"page\":\"\xed\xa0\x80\",\"template\":\"t\",\"property\":\"p\",\"kind\":\"update\"}",
		"{\"time\":1,\"page\":\"a\tb\",\"template\":\"t\",\"property\":\"p\",\"kind\":\"update\"}",
		`{"page":"a","time":1,"template":"t","property":"p","kind":"update"}`,
		`{"Time":1,"PAGE":"a","template":"t","property":"p","kind":"update"}`,
		`{"time":1,"page":"a","template":"t","property":"p","kind":"update","extra":[1,{"x":null}]}`,
		`{"time":1,"time":2,"page":"a","template":"t","property":"p","kind":"update"}`,
		`{"time":1,"page":"a","template":"t","property":"p","value":"x","value":"y","kind":"update"}`,
		`{"time":1e3,"page":"a","template":"t","property":"p","kind":"update"}`,
		`{"time":-0,"page":"a","template":"t","property":"p","kind":"update"}`,
		`{"time":01,"page":"a","template":"t","property":"p","kind":"update"}`,
		`{"time":9223372036854775807,"page":"a","template":"t","property":"p","kind":"update"}`,
		`{"time":-9223372036854775808,"page":"a","template":"t","property":"p","kind":"update"}`,
		`{"time":9223372036854775808,"page":"a","template":"t","property":"p","kind":"update"}`,
		`{"time":null,"page":"a","template":"t","property":"p","kind":"update"}`,
		`{"time":1,"page":"a","template":"t","infobox":-1,"property":"p","kind":"update"}`,
		`{"time":1,"page":"a","template":"t","property":"p","kind":"Update"}`,
		`{"time":1,"page":"a","template":"t","property":"p","kind":"update","bot":null}`,
		`{"time":1,"page":"","template":"t","property":"p","kind":"update"}`,
		`{"time":1,"page":"a","template":"t","property":"p","kind":"update"}garbage`,
		`{"time":1,"page":"a","template":"t","property":"p","kind":"update"}}`,
		` {"time":1, "page":"a","template":"t","property":"p","kind":"update"} `,
	} {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		want, wantErr := decodeReference(line)
		got, err := parseEventLine(line)
		if errors.Is(err, errBlankLine) {
			return // the source skips blank lines before decoding
		}
		if (err == nil) != (wantErr == nil) || got != want {
			t.Fatalf("%q: parseEventLine = %+v, %v; encoding/json = %+v, %v", line, got, err, want, wantErr)
		}
		if fast, ok := parseCanonicalEvent(bytes.TrimSpace(line)); ok {
			var ref Event
			if err := json.Unmarshal(bytes.TrimSpace(line), &ref); err != nil || ref != fast {
				t.Fatalf("%q: fast path = %+v; encoding/json = %+v, %v", line, fast, ref, err)
			}
		}
	})
}

// BenchmarkJSONLDecode reads the small generated corpus, as WriteEvents
// writes it, through a JSONLSource and reports the cost per event.
func BenchmarkJSONLDecode(b *testing.B) {
	cube, _, err := dataset.Generate(dataset.Small())
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEvents(&buf, CubeEvents(cube)); err != nil {
		b.Fatal(err)
	}
	feed := buf.Bytes()
	b.SetBytes(int64(len(feed)))
	b.ResetTimer()
	events := 0
	for i := 0; i < b.N; i++ {
		src := NewJSONLSource(bytes.NewReader(feed))
		for {
			batch, err := src.Next(context.Background())
			events += len(batch)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

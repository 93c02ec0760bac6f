package ingest

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"testing"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/dataset"
	"github.com/wikistale/wikistale/internal/filter"
)

// drain consumes a source to EOF, returning every event.
func drain(t *testing.T, src Source) []Event {
	t.Helper()
	var out []Event
	for {
		batch, err := src.Next(context.Background())
		out = append(out, batch...)
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestJSONLPositionResume: resuming from the position after any batch must
// deliver exactly the events the original source had left — no event lost,
// none double-delivered.
func TestJSONLPositionResume(t *testing.T) {
	events := sampleEvents()
	var buf bytes.Buffer
	if err := WriteEvents(&buf, events); err != nil {
		t.Fatal(err)
	}
	feed := buf.Bytes()

	src := NewJSONLSource(bytes.NewReader(feed))
	src.SetBatchSize(1)
	if pos := src.Position(); !pos.IsZero() && pos.Offset != 0 {
		t.Fatalf("fresh source at offset %d", pos.Offset)
	}
	delivered := 0
	for {
		batch, err := src.Next(context.Background())
		delivered += len(batch)
		pos := src.Position()
		resumed, rerr := ResumeJSONL(bytes.NewReader(feed), pos)
		if rerr != nil {
			t.Fatalf("resume after %d events (pos %+v): %v", delivered, pos, rerr)
		}
		resumed.SetBatchSize(1)
		rest := drain(t, resumed)
		if want := events[delivered:]; !reflect.DeepEqual(rest, append([]Event(nil), want...)) {
			t.Fatalf("resume after %d events delivered %d remaining, want %d",
				delivered, len(rest), len(want))
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if delivered != len(events) {
		t.Fatalf("original source delivered %d of %d", delivered, len(events))
	}
}

// TestJSONLResumeRejectsRewrittenFeed: a feed whose checkpointed tail line
// changed (rewrite) or vanished (truncation) must fail the resume loudly.
func TestJSONLResumeRejectsRewrittenFeed(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteEvents(&buf, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	feed := buf.Bytes()
	src := NewJSONLSource(bytes.NewReader(feed))
	src.SetBatchSize(2)
	if _, err := src.Next(context.Background()); err != nil {
		t.Fatal(err)
	}
	pos := src.Position()

	// Tail byte flipped: checksum mismatch.
	bad := append([]byte(nil), feed...)
	bad[pos.Offset-2] ^= 0x01
	if _, err := ResumeJSONL(bytes.NewReader(bad), pos); err == nil {
		t.Fatal("rewritten tail accepted")
	}
	// Feed shorter than the checkpoint.
	if _, err := ResumeJSONL(bytes.NewReader(feed[:pos.Offset-1]), pos); err == nil {
		t.Fatal("truncated feed accepted")
	}
	// Wrong position kind.
	if _, err := ResumeJSONL(bytes.NewReader(feed), SourcePosition{Kind: "stream", Batch: 1}); err == nil {
		t.Fatal("stream position accepted by jsonl resume")
	}
	// The untouched feed still resumes.
	if _, err := ResumeJSONL(bytes.NewReader(feed), pos); err != nil {
		t.Fatalf("clean resume failed: %v", err)
	}
}

// TestStreamSeek: the sim replay resumes at a batch index.
func TestStreamSeek(t *testing.T) {
	cube, _, err := dataset.Generate(dataset.Small())
	if err != nil {
		t.Fatal(err)
	}
	all := drain(t, NewStream(cube))

	src := NewStream(cube)
	consumed := 0
	for i := 0; i < 3; i++ {
		batch, err := src.Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		consumed += len(batch)
	}
	pos := src.Position()
	if pos.Kind != "stream" || pos.Batch != 3 {
		t.Fatalf("position %+v, want stream batch 3", pos)
	}

	resumed := NewStream(cube)
	if err := resumed.Seek(pos); err != nil {
		t.Fatal(err)
	}
	rest := drain(t, resumed)
	if len(rest)+consumed != len(all) {
		t.Fatalf("resumed stream delivered %d events, want %d", len(rest), len(all)-consumed)
	}
	if !reflect.DeepEqual(rest, all[consumed:]) {
		t.Fatal("resumed stream events differ from the uninterrupted tail")
	}
	if err := resumed.Seek(SourcePosition{Kind: "stream", Batch: 1 << 20}); err == nil {
		t.Fatal("out-of-range seek accepted")
	}
	if err := resumed.Seek(SourcePosition{Kind: "jsonl"}); err == nil {
		t.Fatal("jsonl position accepted by stream seek")
	}
}

// TestStagingCheckpointAtomicity: the checkpoint captured by a snapshot
// must reflect the cursor of the batches in the snapshot, not batches
// appended afterwards.
func TestStagingCheckpointAtomicity(t *testing.T) {
	cube, _, err := dataset.Generate(dataset.Small())
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStaging(filter.Default())
	if err != nil {
		t.Fatal(err)
	}
	src := NewStream(cube)
	ctx := context.Background()
	// Consume until enough history accumulated for a snapshot.
	n := 0
	for {
		events, err := src.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.AppendAt(events, src.Position()); err != nil {
			t.Fatal(err)
		}
		n++
		if _, _, err := st.Snapshot(); err == nil {
			break
		}
		if src.Remaining() == 0 {
			t.Fatal("stream exhausted before any snapshot succeeded")
		}
	}
	want := st.SnapshotCheckpoint()
	if want.Pos.Batch != n {
		t.Fatalf("checkpoint batch %d, want %d", want.Pos.Batch, n)
	}
	// More appends move the live cursor but not the captured checkpoint.
	events, err := src.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendAt(events, src.Position()); err != nil {
		t.Fatal(err)
	}
	if got := st.SnapshotCheckpoint(); got.Pos.Batch != n {
		t.Fatalf("checkpoint moved to batch %d without a snapshot", got.Pos.Batch)
	}
	if _, _, err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got := st.SnapshotCheckpoint(); got.Pos.Batch != n+1 {
		t.Fatalf("checkpoint batch %d after second snapshot, want %d", got.Pos.Batch, n+1)
	}
}

// TestStagingRestoreOrdinals: restoring with explicit ordinals must map
// follow-up events onto the same entities as the original run, even when
// infobox ordinals did not first appear in increasing order.
func TestStagingRestoreOrdinals(t *testing.T) {
	mk := func(infobox int, time int64, value string) Event {
		return Event{Time: time, Page: "P", Template: "T", Infobox: infobox,
			Property: "prop", Value: value, Kind: changecube.Update}
	}
	st, err := NewStaging(filter.Default())
	if err != nil {
		t.Fatal(err)
	}
	// Ordinal 1 first, then 0: entity 0 is box 1, entity 1 is box 0.
	if _, err := st.Append([]Event{mk(1, 100, "a"), mk(0, 200, "b")}); err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	ords := st.ordinalsLocked()
	snap := st.cube.Clone()
	st.mu.Unlock()
	if !reflect.DeepEqual(ords, []int{1, 0}) {
		t.Fatalf("ordinals %v, want [1 0]", ords)
	}

	next := mk(1, 300, "c") // belongs to entity 0 in the original numbering
	if _, err := st.Append([]Event{next}); err != nil {
		t.Fatal(err)
	}

	restored, err := NewStagingFromCubeAt(snap, filter.Default(), ords, SourcePosition{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Append([]Event{next}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fieldChanges(st.cube), fieldChanges(restored.cube)) {
		t.Fatal("restored staging diverged from the uninterrupted one")
	}
	// The sequential assumption would have crossed the entities.
	wrong, err := NewStagingFromCubeAt(snap, filter.Default(), nil, SourcePosition{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wrong.Append([]Event{next}); err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(fieldChanges(st.cube), fieldChanges(wrong.cube)) {
		t.Fatal("sequential-ordinal restore unexpectedly matched; test corpus too weak")
	}
}

// fieldChanges is every field's chronological change list, read through
// the cube's FieldIndexes (which sorts a staging cube: call it last).
func fieldChanges(cube *changecube.Cube) map[changecube.FieldKey][]changecube.Change {
	out := make(map[changecube.FieldKey][]changecube.Change)
	fields, groups := cube.FieldIndexes()
	for i, key := range fields {
		l := cube.FieldLog(groups[i])
		for i := 0; i < l.Len(); i++ {
			out[key] = append(out[key], l.At(i))
		}
	}
	return out
}

// cancelingReader hands out at most step bytes per Read and cancels its
// context once after bytes have been read: a feed whose consumer is shut
// down while a batch is half parsed.
type cancelingReader struct {
	r      io.Reader
	step   int
	after  int
	read   int
	cancel context.CancelFunc
}

func (c *cancelingReader) Read(p []byte) (int, error) {
	if len(p) > c.step {
		p = p[:c.step]
	}
	n, err := c.r.Read(p)
	c.read += n
	if c.read >= c.after {
		c.cancel()
	}
	return n, err
}

// TestJSONLCancelMidBatchKeepsParsedEvents: when the context ends in the
// middle of a batch, Next must hand back the events it already parsed,
// because Position has moved past them — the returned events plus a
// resume from Position must be the feed exactly.
func TestJSONLCancelMidBatchKeepsParsedEvents(t *testing.T) {
	var events []Event
	for i := 0; i < 3; i++ {
		events = append(events, sampleEvents()...)
	}
	var buf bytes.Buffer
	if err := WriteEvents(&buf, events); err != nil {
		t.Fatal(err)
	}
	feed := buf.Bytes()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := NewJSONLSource(&cancelingReader{r: bytes.NewReader(feed), step: 100, after: 300, cancel: cancel})
	got, err := src.Next(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Next returned %v, want context.Canceled", err)
	}
	pos := src.Position()
	if pos.Line == 0 || pos.Line >= len(events) {
		t.Fatalf("cancel landed at line %d of %d, want mid-feed", pos.Line, len(events))
	}
	resumed, err := ResumeJSONL(bytes.NewReader(feed), pos)
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, drain(t, resumed)...)
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("returned plus resumed events = %d, feed has %d (position %+v)", len(got), len(events), pos)
	}
}

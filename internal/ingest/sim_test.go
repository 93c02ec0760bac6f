package ingest

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"testing"

	"github.com/wikistale/wikistale/internal/dataset"
	"github.com/wikistale/wikistale/internal/filter"
)

// TestSimSourceStagingMatchesGenerate is the end-to-end bit-identity
// claim behind the scale path: streaming the generator through the live
// staging buffer reconstructs the exact cube batch generation builds —
// same interned IDs, same bytes — without the producer ever holding one.
func TestSimSourceStagingMatchesGenerate(t *testing.T) {
	cfg := dataset.Small()
	cube, _, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := cube.AppendChanges(nil)

	st, err := NewStaging(filter.Default())
	if err != nil {
		t.Fatal(err)
	}
	src := NewSimSource(cfg)
	defer src.Stop()
	ctx := context.Background()
	for {
		batch, err := src.Next(ctx)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.AppendAt(batch, src.Position()); err != nil {
			t.Fatal(err)
		}
	}

	hs, _, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got := hs.Cube().AppendChanges(nil)
	if !bytes.Equal(want, got) {
		t.Fatalf("staged corpus differs from batch corpus: %d vs %d encoded bytes", len(got), len(want))
	}
}

// TestSimSourceSeek: a fresh source sought to a mid-stream checkpoint
// resumes with exactly the batches the original source had not yet
// delivered.
func TestSimSourceSeek(t *testing.T) {
	cfg := dataset.Small()
	cfg.NumTemplates = 3
	ctx := context.Background()

	first := NewSimSource(cfg)
	defer first.Stop()
	var before [][]Event
	for i := 0; i < 25; i++ {
		b, err := first.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		before = append(before, b)
	}
	cp := first.Position()
	if cp.Kind != "sim" || cp.Batch != 25 {
		t.Fatalf("position = %+v", cp)
	}
	wantNext, err := first.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}

	resumed := NewSimSource(cfg)
	defer resumed.Stop()
	if err := resumed.Seek(cp); err != nil {
		t.Fatal(err)
	}
	if got := resumed.Position(); got != cp {
		t.Fatalf("position after seek = %+v, want %+v", got, cp)
	}
	gotNext, err := resumed.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantNext, gotNext) {
		t.Fatal("resumed stream delivers different events than the original continuation")
	}
	if err := resumed.Seek(cp); err == nil {
		t.Fatal("seek accepted after streaming started")
	}
	if err := NewSimSource(cfg).Seek(SourcePosition{Kind: "jsonl"}); err == nil {
		t.Fatal("foreign position kind accepted")
	}
}

// TestSimSourceEOFSticky: the source keeps returning io.EOF after the
// corpus ends, and the corpus it delivered is complete.
func TestSimSourceEOFSticky(t *testing.T) {
	cfg := dataset.Small()
	cfg.NumTemplates = 2
	cfg.StubsPerEntity = 1
	src := NewSimSource(cfg)
	ctx := context.Background()
	total := 0
	for {
		b, err := src.Next(ctx)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		total += len(b)
	}
	if _, err := src.Next(ctx); !errors.Is(err, io.EOF) {
		t.Fatalf("second EOF poll: %v", err)
	}
	want := 0
	if err := dataset.Stream(cfg, func(evs []dataset.Event) error { want += len(evs); return nil }); err != nil {
		t.Fatal(err)
	}
	if total != want {
		t.Fatalf("delivered %d events, generator emits %d", total, want)
	}
}

// TestSimSourceInvalidConfigSurfaces: config validation errors arrive
// through Next, not a panic in the producer goroutine.
func TestSimSourceInvalidConfigSurfaces(t *testing.T) {
	cfg := dataset.Small()
	cfg.BurstRate = 2.0
	src := NewSimSource(cfg)
	if _, err := src.Next(context.Background()); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want the validation error", err)
	}
}

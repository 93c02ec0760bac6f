package epochstore

import (
	"bytes"
	"context"
	"testing"

	"github.com/wikistale/wikistale/internal/obs/quality"
)

// TestSnapshotQualityRoundTrip: scorer state wired via SetQualitySource
// survives Snapshot → LoadLatest → Restore → MarshalBinary bit-identically
// — the restart contract for alert-outcome scoring.
func TestSnapshotQualityRoundTrip(t *testing.T) {
	det, cp, cfg := trainEpoch(t)
	dir := t.TempDir()
	s := openStore(t, dir, 0)

	scorer := quality.New(14)
	scorer.BeginEpoch(1, 800, []quality.PendingAlert{
		{Page: "Alpha", Property: "population", Families: []string{"correlation", "assoc_rules"}},
		{Page: "Beta", Property: "area"},
	})
	scorer.Observe("Alpha", "population", 803) // one scored outcome rides along
	want := scorer.MarshalBinary()

	s.SetQualitySource(scorer.MarshalBinary)
	if _, err := s.Snapshot(context.Background(), det, cp); err != nil {
		t.Fatal(err)
	}

	res, err := openStore(t, dir, 0).LoadLatest(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != "latest" {
		t.Fatalf("outcome %q, errors %v", res.Outcome, res.Errors)
	}
	if !bytes.Equal(res.Quality, want) {
		t.Fatalf("persisted quality state differs:\n%x\n%x", res.Quality, want)
	}
	restored := quality.New(14)
	if err := restored.Restore(res.Quality); err != nil {
		t.Fatal(err)
	}
	if again := restored.MarshalBinary(); !bytes.Equal(again, want) {
		t.Fatalf("restore → marshal not bit-identical through the store")
	}
}

// TestSnapshotWithoutQualitySource: stores with no scorer wired write an
// empty quality section and load with nil Quality — the batch-mode and
// pre-existing-deployment path.
func TestSnapshotWithoutQualitySource(t *testing.T) {
	det, cp, cfg := trainEpoch(t)
	s := openStore(t, t.TempDir(), 0)
	if _, err := s.Snapshot(context.Background(), det, cp); err != nil {
		t.Fatal(err)
	}
	res, err := s.LoadLatest(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != "latest" || len(res.Quality) != 0 {
		t.Fatalf("outcome %q, quality %d bytes, want latest/empty", res.Outcome, len(res.Quality))
	}
}

// TestSnapshotVersion1BackCompat: a version-1 payload (no quality
// section) still decodes — a store written by the previous build boots on
// this one.
func TestSnapshotVersion1BackCompat(t *testing.T) {
	det, cp, _ := trainEpoch(t)
	payload, err := encodeSnapshot(det, cp.Ordinals, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A v2 payload with an empty quality section is byte-wise a v1 payload
	// plus the version byte and one zero-length uvarint: rewrite both.
	v1 := append([]byte(nil), payload[:len(payload)-1]...)
	v1[len(snapMagic)] = snapVersionV1
	p, err := decodeSnapshot(v1)
	if err != nil {
		t.Fatalf("v1 payload rejected: %v", err)
	}
	if len(p.quality) != 0 {
		t.Fatalf("v1 payload decoded %d quality bytes", len(p.quality))
	}
	// And the v2 payload itself decodes with the empty section intact.
	if p, err = decodeSnapshot(payload); err != nil || len(p.quality) != 0 {
		t.Fatalf("v2 empty-quality payload: %v, %d bytes", err, len(p.quality))
	}
}

// TestSnapshotQualityOpaque: the store does not interpret the quality
// section — arbitrary bytes round-trip verbatim through encode/decode.
func TestSnapshotQualityOpaque(t *testing.T) {
	det, cp, _ := trainEpoch(t)
	blob := []byte("not a real scorer state \x00\xff")
	payload, err := encodeSnapshot(det, cp.Ordinals, blob, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := decodeSnapshot(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.quality, blob) {
		t.Fatalf("quality section mangled: %q", p.quality)
	}
}

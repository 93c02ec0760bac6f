package epochstore

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"github.com/wikistale/wikistale/internal/core"
	"github.com/wikistale/wikistale/internal/dataset"
	"github.com/wikistale/wikistale/internal/ingest"
	"github.com/wikistale/wikistale/internal/obs"
	"github.com/wikistale/wikistale/internal/timeline"
)

// tinyCorpus is a few templates over a few years — big enough to train,
// small enough that per-byte truncation matrices stay cheap.
func tinyCorpus() dataset.Config {
	cfg := dataset.Small()
	cfg.NumTemplates = 4
	cfg.MeanEntitiesPerTemplate = 4
	cfg.BigTemplateEntities = 4
	cfg.StubsPerEntity = 3
	cfg.Span = timeline.NewSpan(timeline.Date(2003, 1, 4), timeline.Date(2007, 1, 4))
	return cfg
}

// trainEpoch streams the tiny corpus through staging and trains a
// detector, returning it with the checkpoint its snapshot captured — the
// exact inputs the manager's post-swap hook hands Store.Snapshot. The
// result is built once and shared; callers treat it as read-only (the
// store itself never mutates a detector it snapshots).
var epochOnce struct {
	sync.Once
	det *core.Detector
	cp  ingest.Checkpoint
	cfg core.Config
	err error
}

func trainEpoch(t testing.TB) (*core.Detector, ingest.Checkpoint, core.Config) {
	t.Helper()
	epochOnce.Do(func() {
		epochOnce.cfg = core.DefaultConfig()
		cube, _, err := dataset.Generate(tinyCorpus())
		if err != nil {
			epochOnce.err = err
			return
		}
		st, err := ingest.NewStaging(epochOnce.cfg.Filter)
		if err != nil {
			epochOnce.err = err
			return
		}
		src := ingest.NewStream(cube)
		ctx := context.Background()
		for {
			events, err := src.Next(ctx)
			if len(events) > 0 {
				if _, err := st.AppendAt(events, src.Position()); err != nil {
					epochOnce.err = err
					return
				}
			}
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				epochOnce.err = err
				return
			}
		}
		hs, stats, err := st.Snapshot()
		if err != nil {
			epochOnce.err = err
			return
		}
		epochOnce.det, epochOnce.err = core.TrainFiltered(hs, stats, epochOnce.cfg)
		epochOnce.cp = st.SnapshotCheckpoint()
	})
	if epochOnce.err != nil {
		t.Fatal(epochOnce.err)
	}
	return epochOnce.det, epochOnce.cp, epochOnce.cfg
}

func openStore(t *testing.T, dir string, retain int) *Store {
	t.Helper()
	s, err := Open(Options{Dir: dir, Retain: retain})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSnapshotLoadRoundTrip: an epoch loaded back from the store must
// detect identically to the one snapshotted, and re-snapshotting the
// loaded epoch must produce a byte-identical payload (the bit-identity
// contract a restart depends on).
func TestSnapshotLoadRoundTrip(t *testing.T) {
	det, cp, cfg := trainEpoch(t)
	s := openStore(t, t.TempDir(), 0)

	rec, err := s.Snapshot(context.Background(), det, cp)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 1 || rec.Checkpoint != cp.Pos {
		t.Fatalf("record %+v, want seq 1 with checkpoint %+v", rec, cp.Pos)
	}
	cube := det.Histories().Cube()
	if rec.Changes != cube.NumChanges() || rec.Entities != cube.NumEntities() ||
		rec.Fields != det.Histories().Len() {
		t.Fatalf("record sizes %+v disagree with the detector", rec)
	}

	res, err := s.LoadLatest(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != "latest" || res.Detector == nil {
		t.Fatalf("load outcome %q (errors %v), want latest", res.Outcome, res.Errors)
	}
	st, err := res.Staging()
	if err != nil || st == nil {
		t.Fatalf("rebuilding staging from loaded epoch: %v", err)
	}
	if res.Checkpoint != cp.Pos {
		t.Fatalf("loaded checkpoint %+v, want %+v", res.Checkpoint, cp.Pos)
	}
	end := det.Histories().Span().End
	for _, window := range []int{3, 7, 30} {
		if !reflect.DeepEqual(res.Detector.DetectStale(end, window), det.DetectStale(end, window)) {
			t.Fatalf("DetectStale(end, %d) differs after reload", window)
		}
	}

	// Re-snapshotting the loaded epoch is byte-identical: the canonical
	// change order and deterministic model encoding close the loop.
	cp2 := st.SnapshotCheckpoint()
	rec2, err := s.Snapshot(context.Background(), res.Detector, cp2)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Bytes != rec.Bytes || rec2.CRC32 != rec.CRC32 {
		t.Fatalf("re-snapshot of loaded epoch not byte-identical: %d/%08x vs %d/%08x",
			rec2.Bytes, rec2.CRC32, rec.Bytes, rec.CRC32)
	}
	if rec2.Checkpoint != cp.Pos {
		t.Fatalf("loaded staging carries checkpoint %+v, want %+v", rec2.Checkpoint, cp.Pos)
	}

	// A resumed feed picks up from the checkpoint the loaded staging
	// carries: appending one more batch must not double-apply history.
	stats := s.Stats()
	if stats.Snapshots != 2 || stats.Epochs != 2 || stats.LatestSeq != 2 {
		t.Fatalf("stats %+v, want 2 snapshots", stats)
	}
	if stats.LastLoadSec <= 0 {
		t.Fatal("load duration not recorded in stats")
	}
}

// TestLoadFallback: corrupt or missing newest snapshots step the loader
// back to the next older epoch; when none is loadable the result is a
// cold start, not an error.
func TestLoadFallback(t *testing.T) {
	det, cp, cfg := trainEpoch(t)
	dir := t.TempDir()
	s := openStore(t, dir, 0)
	ctx := context.Background()
	rec1, err := s.Snapshot(ctx, det, cp)
	if err != nil {
		t.Fatal(err)
	}
	rec2, err := s.Snapshot(ctx, det, cp)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one byte mid-file in the newest snapshot: CRC precheck fails.
	path := filepath.Join(dir, rec2.File)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, 0)
	res, err := s2.LoadLatest(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != "fallback" || res.Record.Seq != rec1.Seq {
		t.Fatalf("outcome %q seq %d, want fallback to seq %d (errors %v)",
			res.Outcome, res.Record.Seq, rec1.Seq, res.Errors)
	}
	if len(res.Errors) != 1 {
		t.Fatalf("errors %v, want exactly the corrupt epoch", res.Errors)
	}
	end := det.Histories().Span().End
	if !reflect.DeepEqual(res.Detector.DetectStale(end, 7), det.DetectStale(end, 7)) {
		t.Fatal("fallback epoch detects differently")
	}

	// A missing snapshot file is skipped the same way.
	if err := os.Remove(filepath.Join(dir, rec1.File)); err != nil {
		t.Fatal(err)
	}
	res, err = openStore(t, dir, 0).LoadLatest(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != "cold" || res.Detector != nil {
		t.Fatalf("outcome %q with both snapshots dead, want cold", res.Outcome)
	}
	if len(res.Errors) != 2 {
		t.Fatalf("errors %v, want both epochs reported", res.Errors)
	}

	// An empty store is also a clean cold start.
	res, err = openStore(t, t.TempDir(), 0).LoadLatest(ctx, cfg)
	if err != nil || res.Outcome != "cold" || len(res.Errors) != 0 {
		t.Fatalf("empty store: res %+v err %v, want silent cold", res, err)
	}
}

// TestSnapshotCommitFailure: a snapshot that cannot be written is counted
// and leaves the committed state alone — the log and the loadable epoch
// stay as they were — and the next attempt commits once the obstacle is
// gone.
func TestSnapshotCommitFailure(t *testing.T) {
	det, cp, cfg := trainEpoch(t)
	dir := t.TempDir()
	s := openStore(t, dir, 0)
	ctx := context.Background()
	if _, err := s.Snapshot(ctx, det, cp); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, logName)
	logBefore, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}

	// A directory where the next temp file goes makes its create fail.
	blocker := filepath.Join(dir, snapName(2)+".tmp")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	errorsTotal := obs.Default.Counter("wikistale_epochstore_snapshot_errors_total", nil)
	countBefore := errorsTotal.Value()
	if _, err := s.Snapshot(ctx, det, cp); err == nil {
		t.Fatal("snapshot over a blocked temp file succeeded")
	}
	if got := s.Stats().SnapshotErrors; got != 1 {
		t.Fatalf("Stats().SnapshotErrors = %d, want 1", got)
	}
	if got := errorsTotal.Value(); got != countBefore+1 {
		t.Fatalf("snapshot error counter moved by %d, want 1", got-countBefore)
	}
	if n := s.Epochs(); n != 1 {
		t.Fatalf("%d epochs after the failed commit, want 1", n)
	}
	if logAfter, err := os.ReadFile(logPath); err != nil || !bytes.Equal(logAfter, logBefore) {
		t.Fatalf("EPOCHS changed by the failed commit (read error %v)", err)
	}
	res, err := s.LoadLatest(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != "latest" || res.Record.Seq != 1 {
		t.Fatalf("load after the failed commit: outcome %q seq %d, want latest seq 1 (errors %v)",
			res.Outcome, res.Record.Seq, res.Errors)
	}

	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	rec, err := s.Snapshot(ctx, det, cp)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 2 {
		t.Fatalf("commit after recovery has seq %d, want 2", rec.Seq)
	}
}

// TestRetentionAndCompaction: old snapshot files are removed past Retain
// and the log is compacted instead of growing without bound; the store
// stays loadable throughout.
func TestRetentionAndCompaction(t *testing.T) {
	det, cp, cfg := trainEpoch(t)
	dir := t.TempDir()
	s := openStore(t, dir, 2)
	ctx := context.Background()
	var last Record
	for i := 0; i < 10; i++ {
		rec, err := s.Snapshot(ctx, det, cp)
		if err != nil {
			t.Fatal(err)
		}
		last = rec
	}
	if files := s.countFiles(); files != 2 {
		t.Fatalf("%d snapshot files on disk, want retain=2", files)
	}
	if n := s.Epochs(); n >= s.compactThreshold() {
		t.Fatalf("log holds %d records, compaction (threshold %d) never ran", n, s.compactThreshold())
	}
	// Reopen: the compacted log parses, sequence numbering continues, and
	// the newest epoch still loads.
	s2 := openStore(t, dir, 2)
	if n := len(s2.records); n == 0 || s2.records[n-1].Seq != last.Seq {
		t.Fatalf("latest after reopen %+v, want seq %d", s2.records, last.Seq)
	}
	res, err := s2.LoadLatest(ctx, cfg)
	if err != nil || res.Outcome != "latest" {
		t.Fatalf("load after retention: outcome %q err %v (errors %v)", res.Outcome, err, res.Errors)
	}
	rec, err := s2.Snapshot(ctx, det, cp)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Seq != last.Seq+1 {
		t.Fatalf("next seq %d after reopen, want %d", rec.Seq, last.Seq+1)
	}
}

// TestLogTruncationMatrix: decodeLog must treat EVERY prefix of a valid
// log as a valid prefix of records — the crash-at-any-byte contract.
func TestLogTruncationMatrix(t *testing.T) {
	recs := []Record{
		{Seq: 1, File: "ep-00000001.snap", Bytes: 100, CRC32: 0xdeadbeef, Time: "2026-08-08T00:00:00Z",
			Checkpoint: ingest.SourcePosition{Kind: "stream", Batch: 3}},
		{Seq: 2, File: "ep-00000002.snap", Bytes: 2048, CRC32: 1, Time: "2026-08-08T00:01:00Z",
			Checkpoint: ingest.SourcePosition{Kind: "jsonl", Offset: 512, Line: 9, TailLen: 40, TailCRC: 7}},
		{Seq: 3, File: "ep-00000003.snap", Bytes: 1, CRC32: 0},
	}
	var full []byte
	var boundaries []int64 // cumulative line ends
	for _, rec := range recs {
		line, err := encodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		full = append(full, line...)
		boundaries = append(boundaries, int64(len(full)))
	}

	wantAt := func(l int64) int {
		n := 0
		for _, b := range boundaries {
			if b <= l {
				n++
			}
		}
		return n
	}
	for l := 0; l <= len(full); l++ {
		got, validLen := decodeLog(full[:l])
		if want := wantAt(int64(l)); len(got) != want {
			t.Fatalf("prefix %d: %d records, want %d", l, len(got), want)
		}
		if validLen > int64(l) {
			t.Fatalf("prefix %d: validLen %d beyond input", l, validLen)
		}
		if len(got) > 0 && validLen != boundaries[len(got)-1] {
			t.Fatalf("prefix %d: validLen %d, want boundary %d", l, validLen, boundaries[len(got)-1])
		}
		// Idempotence: the valid prefix re-decodes to the same records.
		again, againLen := decodeLog(full[:validLen])
		if !reflect.DeepEqual(got, again) || againLen != validLen {
			t.Fatalf("prefix %d: decode of valid prefix not idempotent", l)
		}
	}

	// Corruption mid-log (not just truncation) also ends the prefix there.
	for _, flip := range []int64{boundaries[0] + 3, boundaries[1] + 10} {
		bad := append([]byte(nil), full...)
		bad[flip] ^= 0x01
		got, _ := decodeLog(bad)
		if want := wantAt(flip); len(got) != want {
			t.Fatalf("flip at %d: %d records survive, want %d", flip, len(got), want)
		}
	}

	// Sequence regression (a stale line glued after newer ones) ends the
	// prefix instead of rewinding history.
	line, err := encodeRecord(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	got, _ := decodeLog(append(append([]byte(nil), full...), line...))
	if len(got) != len(recs) {
		t.Fatalf("seq regression accepted: %d records", len(got))
	}
}

// TestOpenTruncatesTornTail: a store whose log tore mid-line must come
// back writable — the torn bytes are cut so the next append starts on a
// clean boundary and every epoch (old and new) parses after reopen.
func TestOpenTruncatesTornTail(t *testing.T) {
	det, cp, cfg := trainEpoch(t)
	dir := t.TempDir()
	s := openStore(t, dir, 0)
	ctx := context.Background()
	if _, err := s.Snapshot(ctx, det, cp); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot(ctx, det, cp); err != nil {
		t.Fatal(err)
	}

	logPath := filepath.Join(dir, logName)
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	firstLine := int64(bytes.IndexByte(data, '\n') + 1)
	cuts := []int64{
		int64(len(data)) - 1,  // lost the final newline
		int64(len(data)) - 10, // mid-JSON
		firstLine + 2,         // barely into the second line
	}
	for _, cut := range cuts {
		if err := os.WriteFile(logPath, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		sr := openStore(t, dir, 0)
		if n := sr.Epochs(); n != 1 {
			t.Fatalf("cut %d: %d epochs parse, want 1", cut, n)
		}
		if fi, err := os.Stat(logPath); err != nil || fi.Size() >= cut {
			t.Fatalf("cut %d: torn tail not truncated (size %d)", cut, fi.Size())
		}
		// The surviving epoch loads, and a fresh append after the tear
		// parses on the next open (the glued-line regression).
		res, err := sr.LoadLatest(ctx, cfg)
		if err != nil || res.Outcome == "cold" {
			t.Fatalf("cut %d: load outcome %q err %v", cut, res.Outcome, err)
		}
		surviving := sr.records[len(sr.records)-1]
		rec3, err := sr.Snapshot(ctx, det, cp)
		if err != nil {
			t.Fatal(err)
		}
		// The torn record's sequence number is reclaimed: strictly
		// increasing within the (truncated) log is the invariant.
		if rec3.Seq != surviving.Seq+1 {
			t.Fatalf("cut %d: seq %d after torn tail, want %d", cut, rec3.Seq, surviving.Seq+1)
		}
		if n := openStore(t, dir, 0).Epochs(); n != 2 {
			t.Fatalf("cut %d: %d epochs after post-tear append, want 2", cut, n)
		}
		// Reset for the next cut.
		if err := os.WriteFile(logPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotDecodeRejectsDamage: every truncation of a valid snapshot
// payload, plus a handful of targeted corruptions, must error — never
// panic, never half-load.
func TestSnapshotDecodeRejectsDamage(t *testing.T) {
	det, cp, _ := trainEpoch(t)
	payload, err := encodeSnapshot(det, cp.Ordinals, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeSnapshot(payload); err != nil {
		t.Fatalf("valid payload rejected: %v", err)
	}
	for l := 0; l < len(payload); l++ {
		if _, err := decodeSnapshot(payload[:l]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", l)
		}
	}
	bad := append([]byte(nil), payload...)
	bad[0] = 'X'
	if _, err := decodeSnapshot(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	bad = append([]byte(nil), payload...)
	bad[4] = 99
	if _, err := decodeSnapshot(bad); err == nil {
		t.Fatal("future version accepted")
	}
	if _, err := decodeSnapshot(append(append([]byte(nil), payload...), 0)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

// FuzzEpochLogDecode: decodeLog never panics and always returns a
// well-formed, idempotent valid prefix with strictly increasing
// sequence numbers.
func FuzzEpochLogDecode(f *testing.F) {
	var seed []byte
	for _, rec := range []Record{
		{Seq: 1, File: "ep-00000001.snap", Bytes: 10, CRC32: 3,
			Checkpoint: ingest.SourcePosition{Kind: "jsonl", Offset: 40, TailLen: 8, TailCRC: 9}},
		{Seq: 2, File: "ep-00000002.snap", Bytes: 20, CRC32: 4},
	} {
		line, err := encodeRecord(rec)
		if err != nil {
			f.Fatal(err)
		}
		seed = append(seed, line...)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-5])
	f.Add([]byte("WEL1 00000000 {}\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		records, validLen := decodeLog(data)
		if validLen < 0 || validLen > int64(len(data)) {
			t.Fatalf("validLen %d outside input of %d bytes", validLen, len(data))
		}
		var prev uint64
		for _, rec := range records {
			if rec.Seq <= prev {
				t.Fatalf("non-monotonic seq %d after %d", rec.Seq, prev)
			}
			if rec.File == "" || rec.File != filepath.Base(rec.File) {
				t.Fatalf("unsafe file name %q survived decode", rec.File)
			}
			prev = rec.Seq
		}
		again, againLen := decodeLog(data[:validLen])
		if againLen != validLen || len(again) != len(records) {
			t.Fatalf("decode not idempotent: %d/%d records, %d/%d bytes",
				len(again), len(records), againLen, validLen)
		}
	})
}

// FuzzSnapshotDecode: decodeSnapshot never panics on arbitrary bytes —
// in particular it must validate every id before changecube.Cube.Add,
// which panics on out-of-range references.
func FuzzSnapshotDecode(f *testing.F) {
	det, cp, _ := trainEpoch(f)
	payload, err := encodeSnapshot(det, cp.Ordinals, nil, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(payload)
	f.Add(payload[:len(payload)/2])
	f.Add([]byte("WES1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := decodeSnapshot(data)
		if err != nil {
			return
		}
		if p.cube == nil || len(p.ordinals) != p.cube.NumEntities() {
			t.Fatalf("accepted payload with %d ordinals for %d entities",
				len(p.ordinals), p.cube.NumEntities())
		}
	})
}

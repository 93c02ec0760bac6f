// Package epochstore persists trained epochs — detector model, change
// cube, and feed checkpoint — so a restarted serving process boots in
// milliseconds by loading the newest valid epoch instead of retraining,
// and resumes its feed exactly where the snapshot left it.
//
// On-disk layout:
//
//	dir/
//	  EPOCHS              append-only epoch log: one "WEL1 <crc32> <json>"
//	                      line per committed epoch, newest last
//	  ep-00000001.snap    versioned binary snapshot: model JSON, interned
//	  ...                 dictionaries, entities (with infobox ordinals),
//	                      and the cube's changes in canonical order
//
// Commit protocol: the snapshot is written to a temp file, fsynced, and
// renamed into place (directory fsynced) before its record — carrying the
// file's size and CRC-32 plus the source checkpoint captured atomically
// with the training snapshot — is appended to EPOCHS and fsynced. A crash
// at any byte boundary therefore leaves a log whose valid prefix
// references only fully durable snapshots; Open truncates any torn tail
// and load walks records newest-first, falling back past corrupt or
// missing snapshots and reporting a cold start only when none is loadable.
//
// Retention: superseded snapshot files beyond Options.Retain are deleted
// after each commit, and the log itself is compacted (rewritten to the
// newest Retain records via temp + rename) once it accumulates well more
// records than it retains files for.
package epochstore

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"

	"github.com/wikistale/wikistale/internal/ingest"
	"github.com/wikistale/wikistale/internal/obs"
)

// DefaultRetain is the number of epoch snapshots kept on disk.
const DefaultRetain = 3

// Options configures a store.
type Options struct {
	// Dir is the store directory, created if absent.
	Dir string
	// Retain caps the snapshot files kept on disk (default DefaultRetain,
	// minimum 1). Older files are removed after each commit.
	Retain int
}

// Store is an open epoch store. Safe for concurrent use; commits
// serialize on one mutex (the ingest manager snapshots from a single
// goroutine anyway).
type Store struct {
	mu      sync.Mutex
	dir     string
	retain  int
	records []Record // valid log records, oldest first
	nextSeq uint64
	logger  *slog.Logger

	// qualitySource, when set, is called at snapshot time for the quality
	// scorer's serialized state, persisted opaquely in the v2 envelope.
	qualitySource func() []byte

	snapshots      *obs.Counter
	snapshotErrors *obs.Counter
	snapshotBytes  *obs.Histogram
	snapshotSecs   *obs.Histogram
	loadSecs       *obs.Histogram
	lastLoadSecs   *obs.Gauge
	logRecords     *obs.Gauge
	retainedFiles  *obs.Gauge
	gcRemoved      *obs.Counter

	// lastSnapshot*/lastLoad* back Stats (the /statusz store section).
	lastSnapshotSecs float64
	lastLoadSeconds  float64
	lastOutcome      string
	snapshotCount    uint64
	errorCount       uint64
}

// byteBuckets sizes the snapshot-bytes histogram.
var byteBuckets = []float64{
	1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10,
	1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20, 1 << 30,
}

// Open loads (or initializes) an epoch store in opts.Dir, truncating any
// torn tail off the epoch log so subsequent appends stay parseable.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("epochstore: empty directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("epochstore: %w", err)
	}
	retain := opts.Retain
	if retain < 1 {
		retain = DefaultRetain
	}
	reg := obs.Default
	reg.SetHelp("wikistale_epochstore_snapshots_total", "Epoch snapshots committed to the store.")
	reg.SetHelp("wikistale_epochstore_snapshot_errors_total", "Epoch snapshot attempts that failed.")
	reg.SetHelp("wikistale_epochstore_snapshot_bytes", "Size of committed epoch snapshot files.")
	reg.SetHelp("wikistale_epochstore_snapshot_seconds", "Wall time to encode and commit one epoch snapshot.")
	reg.SetHelp("wikistale_epochstore_load_seconds", "Wall time to load an epoch from the store (decode + refilter + model reconstruction).")
	reg.SetHelp("wikistale_epochstore_last_load_seconds", "Duration of the most recent epoch load.")
	reg.SetHelp("wikistale_epochstore_log_records", "Valid records in the EPOCHS log.")
	reg.SetHelp("wikistale_epochstore_retained_files", "Epoch snapshot files currently retained on disk.")
	reg.SetHelp("wikistale_epochstore_gc_removed_total", "Superseded epoch snapshot files removed by retention.")
	reg.SetHelp("wikistale_epochstore_recovery_total", "Boot-from-store outcomes by kind: latest, fallback, cold, resume_mismatch.")
	s := &Store{
		dir:            opts.Dir,
		retain:         retain,
		nextSeq:        1,
		logger:         slog.Default(),
		snapshots:      reg.Counter("wikistale_epochstore_snapshots_total", nil),
		snapshotErrors: reg.Counter("wikistale_epochstore_snapshot_errors_total", nil),
		snapshotBytes:  reg.Histogram("wikistale_epochstore_snapshot_bytes", byteBuckets, nil),
		snapshotSecs:   reg.Histogram("wikistale_epochstore_snapshot_seconds", obs.DurationBuckets, nil),
		loadSecs:       reg.Histogram("wikistale_epochstore_load_seconds", obs.DurationBuckets, nil),
		lastLoadSecs:   reg.Gauge("wikistale_epochstore_last_load_seconds", nil),
		logRecords:     reg.Gauge("wikistale_epochstore_log_records", nil),
		retainedFiles:  reg.Gauge("wikistale_epochstore_retained_files", nil),
		gcRemoved:      reg.Counter("wikistale_epochstore_gc_removed_total", nil),
	}
	if err := s.openLog(); err != nil {
		return nil, err
	}
	s.logRecords.Set(float64(len(s.records)))
	s.retainedFiles.Set(float64(s.countFiles()))
	return s, nil
}

// RecordRecovery counts one boot outcome ("latest", "fallback", "cold",
// "resume_mismatch") in wikistale_epochstore_recovery_total and remembers
// it for Stats.
func (s *Store) RecordRecovery(outcome string) {
	obs.Default.Counter("wikistale_epochstore_recovery_total", obs.Labels{"outcome": outcome}).Inc()
	s.mu.Lock()
	s.lastOutcome = outcome
	s.mu.Unlock()
}

// SetQualitySource wires the quality scorer's state serializer into the
// snapshot path: every committed epoch carries the scorer's state at
// snapshot time, so a restart resumes alert-outcome scoring instead of
// forgetting every pending prediction. Call before the first Snapshot.
func (s *Store) SetQualitySource(fn func() []byte) {
	s.qualitySource = fn
}

// SetLogger replaces the structured logger (default slog.Default()).
func (s *Store) SetLogger(l *slog.Logger) {
	if l != nil {
		s.logger = l
	}
}

// logError reports a non-fatal store problem.
func (s *Store) logError(msg string, err error) {
	s.logger.Warn(msg, "dir", s.dir, "error", err.Error())
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Epochs returns the number of valid records in the log.
func (s *Store) Epochs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.records)
}

// Latest returns the newest record, if any.
func (s *Store) Latest() (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.records) == 0 {
		return Record{}, false
	}
	return s.records[len(s.records)-1], true
}

// syncDir fsyncs a directory so renames and newly created names in it
// survive a power failure.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// countFiles counts ep-*.snap files on disk. Caller need not hold the
// mutex (reads the directory, not store state).
func (s *Store) countFiles() int {
	matches, _ := filepath.Glob(filepath.Join(s.dir, "ep-*.snap"))
	return len(matches)
}

// StoreStats is the point-in-time summary surfaced on /statusz and
// /v1/ingest/stats-adjacent endpoints.
type StoreStats struct {
	Dir         string `json:"dir"`
	Epochs      int    `json:"epochs"`
	Retain      int    `json:"retain"`
	Files       int    `json:"files"`
	LatestSeq   uint64 `json:"latest_seq,omitempty"`
	LatestTime  string `json:"latest_time,omitempty"`
	LatestBytes int64  `json:"latest_bytes,omitempty"`
	// Checkpoint is the newest epoch's source checkpoint.
	Checkpoint      ingest.SourcePosition `json:"checkpoint,omitempty"`
	Snapshots       uint64                `json:"snapshots"`
	SnapshotErrors  uint64                `json:"snapshot_errors"`
	LastSnapshotSec float64               `json:"last_snapshot_seconds,omitempty"`
	LastLoadSec     float64               `json:"last_load_seconds,omitempty"`
	// RecoveryOutcome is how this process booted: "latest", "fallback",
	// "cold", or "resume_mismatch".
	RecoveryOutcome string `json:"recovery_outcome,omitempty"`
}

// Stats returns the current store summary.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StoreStats{
		Dir:             s.dir,
		Epochs:          len(s.records),
		Retain:          s.retain,
		Snapshots:       s.snapshotCount,
		SnapshotErrors:  s.errorCount,
		LastSnapshotSec: s.lastSnapshotSecs,
		LastLoadSec:     s.lastLoadSeconds,
		RecoveryOutcome: s.lastOutcome,
	}
	if n := len(s.records); n > 0 {
		latest := s.records[n-1]
		st.LatestSeq = latest.Seq
		st.LatestTime = latest.Time
		st.LatestBytes = latest.Bytes
		st.Checkpoint = latest.Checkpoint
	}
	st.Files = s.countFiles()
	return st
}

package ingest

import (
	"fmt"
	"sync"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/core"
	"github.com/wikistale/wikistale/internal/filter"
	"github.com/wikistale/wikistale/internal/timeline"
)

// entityKey is the stream-side identity of an infobox: page + template +
// ordinal among the page's boxes of that template. It is stable across
// replay order, unlike the dense EntityID the cube assigns on first sight.
type entityKey struct {
	page     changecube.PageID
	template changecube.TemplateID
	ordinal  int
}

// pageTemplate keys the next-free-ordinal table.
type pageTemplate struct {
	page     changecube.PageID
	template changecube.TemplateID
}

// fieldBuf is the per-field staging state: the raw chronological change
// list plus the per-field filter funnel over it, which ResumeField keeps
// up to date. Changes are held as indexes into the staging cube's packed
// log (4 bytes per change instead of a 40-byte struct plus value string),
// which is only sound because the staging cube is never sorted —
// append-order indexes stay stable for its whole life.
//
// A field staged from a persisted epoch starts lazy: of its funnel only
// Days is set, to its persisted history's days if it cleared the
// MinChanges gate, and Raw is -1; the rest is computed when a batch first
// touches the field (or Stats needs its days). That walk keeps the Days
// slice when it finds the same days, so until the field changes every
// snapshot shares its day slice and ChangedSince between two of them
// skips it without a scan. (A flag of its own would take the buffer from
// 80 to 96 bytes with Go's size classes: a megabyte at bench scale.)
type fieldBuf struct {
	raw    []uint32
	funnel filter.FieldFunnel
}

// lazy reports whether the field's funnel is still to be computed.
func (b *fieldBuf) lazy() bool { return b.funnel.Raw < 0 }

// Staging is the mutable ingestion buffer: a change cube that grows as
// events arrive, with the §4 per-field noise stages (bot-revert removal,
// day dedup, creation/deletion removal) resumed on every touched field
// from the first position the batch changed, and the corpus-level
// MinChanges gate re-checked on append. Snapshot freezes the current
// state into an immutable HistorySet over a cloned cube, which is what
// the background retrainer feeds to core.TrainFilteredHintedCtx.
//
// All methods are safe for concurrent use; Append and Snapshot serialize
// on one mutex, so appends pause only for the cube clone — the change log
// shares its sealed chunks and copies the open one (O(chunk), not
// O(changes)), plus the dictionaries and entity table — never for a
// retrain.
type Staging struct {
	mu  sync.Mutex
	cfg filter.Config

	cube    *changecube.Cube
	entIdx  map[entityKey]changecube.EntityID
	ordinal map[pageTemplate]int // next free ordinal per (page, template)
	fields  map[changecube.FieldKey]*fieldBuf

	// Aggregate funnel counts, maintained by per-field delta so they
	// always match what filter.Apply over the same changes reports.
	counts   filter.Counts
	eligible int // fields clearing MinChanges
	appended uint64

	// seed is the detector an epoch-booted staging was built from, until
	// NewManager takes it as the first retrain's TrainHints.Prev.
	seed *core.Detector

	// cursor is the feed position after the newest applied batch (set by
	// AppendAt); snapCP freezes cursor + entity ordinals at the moment of
	// the last successful snapshot, so the epoch store persists a
	// checkpoint that matches the snapshot cube exactly even while appends
	// keep racing ahead.
	cursor SourcePosition
	snapCP Checkpoint
}

// NewStaging returns an empty staging buffer (a cold start).
func NewStaging(cfg filter.Config) (*Staging, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	return &Staging{
		cfg:     cfg,
		cube:    changecube.New(),
		entIdx:  make(map[entityKey]changecube.EntityID),
		ordinal: make(map[pageTemplate]int),
		fields:  make(map[changecube.FieldKey]*fieldBuf),
	}, nil
}

// NewStagingFromCube returns a staging buffer warm-started from an
// existing corpus cube: every recorded change is staged as if it had just
// streamed in. The cube is cloned — the caller's copy is never mutated, so
// a detector trained on it can keep serving while the staging copy grows.
func NewStagingFromCube(cube *changecube.Cube, cfg filter.Config) (*Staging, error) {
	return NewStagingFromCubeAt(cube, cfg, nil, SourcePosition{})
}

// NewStagingFromCubeAt is NewStagingFromCube restoring a checkpointed
// state: ordinals, when non-nil, gives each entity's infobox ordinal
// (indexed by EntityID, as Staging.SnapshotCheckpoint captured it) instead
// of assuming first-seen ordinals are sequential, and pos primes the
// source cursor so a snapshot taken before any new batch arrives carries
// the restored checkpoint forward.
func NewStagingFromCubeAt(cube *changecube.Cube, cfg filter.Config, ordinals []int, pos SourcePosition) (*Staging, error) {
	return newStagingAt(cube, cfg, ordinals, pos, nil)
}

// NewStagingFromEpoch is NewStagingFromCubeAt over the cube of det, a
// detector booted from a persisted epoch, without re-running the §4 walk:
// the epoch's funnel counts and histories are taken as they are, and a
// field's funnel is computed when the first batch touches it, by the
// from-empty walk over its list before the batch. The rebuild is
// O(fields). The persisted state is checked first — the raw count must
// equal the cube's changes, the histories' days must sum to the funnel's
// output, and every history must belong to a staged field and clear
// MinChanges — and when it does not add up, every field is walked up
// front as NewStagingFromCubeAt does. Otherwise det also seeds the first
// retrain: a Manager built over the staging trains it with det as
// TrainHints.Prev, so every model stage reuses det's work.
func NewStagingFromEpoch(det *core.Detector, cfg filter.Config, ordinals []int, pos SourcePosition) (*Staging, error) {
	return newStagingAt(det.Histories().Cube(), cfg, ordinals, pos, det)
}

// newStagingAt builds a staging buffer over a clone of cube. With an
// epoch detector whose persisted state checks out, fields start lazy;
// otherwise every field's funnel is computed here.
func newStagingAt(cube *changecube.Cube, cfg filter.Config, ordinals []int, pos SourcePosition, epoch *core.Detector) (*Staging, error) {
	st, err := NewStaging(cfg)
	if err != nil {
		return nil, err
	}
	if ordinals != nil && len(ordinals) != cube.NumEntities() {
		return nil, fmt.Errorf("ingest: %d ordinals for %d entities", len(ordinals), cube.NumEntities())
	}
	st.cube = cube.Clone()
	st.cursor = pos
	for e := 0; e < st.cube.NumEntities(); e++ {
		id := changecube.EntityID(e)
		info := st.cube.Entity(id)
		pt := pageTemplate{info.Page, info.Template}
		ord := st.ordinal[pt]
		if ordinals != nil {
			ord = ordinals[e]
		}
		st.entIdx[entityKey{info.Page, info.Template, ord}] = id
		if ord >= st.ordinal[pt] {
			st.ordinal[pt] = ord + 1
		}
	}
	// FieldIndexes is the staging cube's only sort ever: every index it
	// returns stays valid afterwards.
	fields, groups := st.cube.FieldIndexes()
	bufs := make([]fieldBuf, len(fields))
	st.fields = make(map[changecube.FieldKey]*fieldBuf, len(fields))
	for i, key := range fields {
		bufs[i].raw = groups[i]
		st.fields[key] = &bufs[i]
	}
	if epoch == nil || !st.adoptEpoch(epoch, bufs) {
		for i := range bufs {
			st.refilter(&bufs[i], 0)
		}
	}
	// The buffer's state corresponds to pos exactly, so that is its
	// snapshot checkpoint until the first real snapshot supersedes it.
	st.snapCP = Checkpoint{Pos: pos, Ordinals: st.ordinalsLocked()}
	return st, nil
}

// adoptEpoch takes det's persisted funnel counts and histories as the
// state of the staged fields, whose buffers are bufs, marking each lazy,
// when they are consistent with the staged cube; it reports whether they
// were. The funnels share the histories' day slices, which the epoch
// store decodes capped, so a walk that appends to one reallocates rather
// than writing into the days of the next field or of det.
func (st *Staging) adoptEpoch(det *core.Detector, bufs []fieldBuf) bool {
	counts, ok := filter.CountsOf(det.FilterStats())
	if !ok || counts.Raw != st.cube.NumChanges() {
		return false
	}
	hists := det.Histories().Histories()
	owners := make([]*fieldBuf, len(hists))
	days := 0
	for i, h := range hists {
		owners[i] = st.fields[h.Field]
		if owners[i] == nil || h.Len() < st.cfg.MinChanges {
			return false
		}
		days += h.Len()
	}
	if days != counts.AfterMinChanges {
		return false
	}
	for i, h := range hists {
		owners[i].funnel.Days = h.Days()
	}
	for i := range bufs {
		bufs[i].funnel.Raw = -1
	}
	st.counts, st.eligible, st.seed = counts, len(hists), det
	return true
}

// Append stages a batch of events: names are interned, unseen infoboxes
// registered, and every touched field's filter funnel recomputed. It
// returns the number of distinct fields the batch touched. An invalid
// event fails the whole batch with nothing staged.
func (st *Staging) Append(events []Event) (touched int, err error) {
	res, err := st.appendAt(events, nil)
	return res.touched, err
}

// AppendAt is Append plus a cursor update: pos is the feed position after
// this batch, recorded under the same mutex as the data so a concurrent
// Snapshot never pairs a cube with a cursor from a different instant —
// the atomicity the no-double-apply guarantee of resume rests on.
func (st *Staging) AppendAt(events []Event, pos SourcePosition) (touched int, err error) {
	res, err := st.appendAt(events, &pos)
	return res.touched, err
}

// appendResult is everything the manager's per-batch bookkeeping needs
// from one append, read under the mutex that staged the batch so the
// manager never takes the lock a second time.
type appendResult struct {
	touched       int // distinct fields the batch touched
	newEntities   int // infoboxes first seen in the batch
	newProperties int // property names first seen in the batch
	changes       int // raw staged changes after the batch
}

func (st *Staging) appendAt(events []Event, pos *SourcePosition) (appendResult, error) {
	for i, ev := range events {
		if err := ev.Validate(); err != nil {
			return appendResult{}, fmt.Errorf("ingest: event %d: %w", i, err)
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	entBefore, propBefore := st.cube.NumEntities(), st.cube.Properties.Len()
	// touched maps each field the batch touched to the first raw position
	// the batch changed in it: the smallest insertion position, since an
	// insertion only shifts the positions after it.
	touched := make(map[*fieldBuf]int)
	for _, ev := range events {
		buf, pos := st.stage(ev)
		if from, ok := touched[buf]; !ok || pos < from {
			touched[buf] = pos
		}
	}
	for buf, from := range touched {
		st.refilter(buf, from)
	}
	st.appended += uint64(len(events))
	if pos != nil {
		st.cursor = *pos
	}
	return appendResult{
		touched:       len(touched),
		newEntities:   st.cube.NumEntities() - entBefore,
		newProperties: st.cube.Properties.Len() - propBefore,
		changes:       st.cube.NumChanges(),
	}, nil
}

// stage interns one event into the cube and its field buffer, returning
// the buffer and the raw position the change was inserted at. Caller holds
// the mutex.
func (st *Staging) stage(ev Event) (*fieldBuf, int) {
	templateID := changecube.TemplateID(st.cube.Templates.Intern(ev.Template))
	pageID := changecube.PageID(st.cube.Pages.Intern(ev.Page))
	propID := changecube.PropertyID(st.cube.Properties.Intern(ev.Property))
	ek := entityKey{pageID, templateID, ev.Infobox}
	entity, ok := st.entIdx[ek]
	if !ok {
		entity = st.cube.AddEntity(templateID, pageID)
		st.entIdx[ek] = entity
		pt := pageTemplate{pageID, templateID}
		if ev.Infobox >= st.ordinal[pt] {
			st.ordinal[pt] = ev.Infobox + 1
		}
	}
	ch := changecube.Change{
		Time:     ev.Time,
		Entity:   entity,
		Property: propID,
		Value:    ev.Value,
		Kind:     ev.Kind,
		Bot:      ev.Bot,
	}
	idx := uint32(st.cube.NumChanges()) // Add appends, so this is its index
	st.cube.Add(ch)
	fk := changecube.FieldKey{Entity: entity, Property: propID}
	buf, ok := st.fields[fk]
	if !ok {
		buf = &fieldBuf{}
		st.fields[fk] = buf
	}
	if buf.lazy() {
		st.materialize(buf) // over the list before this batch
	}
	// Insert preserving chronological order; equal timestamps keep arrival
	// order, matching the cube's canonical stable sort within a field.
	i := len(buf.raw)
	for i > 0 && st.cube.TimeAt(int(buf.raw[i-1])) > ch.Time {
		i--
	}
	buf.raw = append(buf.raw, 0)
	copy(buf.raw[i+1:], buf.raw[i:])
	buf.raw[i] = idx
	return buf, i
}

// refilter brings one field's funnel up to date with its raw list, which
// changed at position from onwards, and folds the delta into the aggregate
// counters. Caller holds the mutex. ResumeField never rewrites a Days
// entry in place, so slices handed out by earlier Snapshots stay valid.
func (st *Staging) refilter(buf *fieldBuf, from int) {
	old := buf.funnel
	oldEligible := len(old.Days) >= st.cfg.MinChanges
	filter.ResumeField(&buf.funnel, st.cube.FieldLog(buf.raw), from, st.cfg)
	newEligible := len(buf.funnel.Days) >= st.cfg.MinChanges

	st.counts.Add(old, st.cfg.MinChanges, -1)
	st.counts.Add(buf.funnel, st.cfg.MinChanges, 1)
	if oldEligible {
		st.eligible--
	}
	if newEligible {
		st.eligible++
	}
}

// materialize computes a lazy field's funnel: the from-empty walk over
// its list, whose counts the aggregate already holds. That walk reads
// nothing of the old funnel but Days, which it keeps when it finds the
// same days. Caller holds the mutex.
func (st *Staging) materialize(buf *fieldBuf) {
	filter.ResumeField(&buf.funnel, st.cube.FieldLog(buf.raw), 0, st.cfg)
}

// Snapshot freezes the staging state: a deep clone of the cube plus the
// HistorySet of every field currently clearing the MinChanges gate, with
// funnel statistics identical to what filter.Apply over the same changes
// would report. The result is immutable
// and safe to train on while appends continue. A field whose days no
// Append changed since an earlier Snapshot shares its day slice with that
// snapshot, so
// HistorySet.ChangedSince between the two skips it without a scan.
func (st *Staging) Snapshot() (*changecube.HistorySet, filter.Stats, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	clone := st.cube.Clone()
	histories := make([]changecube.History, 0, st.eligible)
	for key, buf := range st.fields {
		if len(buf.funnel.Days) >= st.cfg.MinChanges {
			// Capped, so a holder appending to its days can never write
			// into the capacity ResumeField grows the funnel into.
			days := buf.funnel.Days
			histories = append(histories, changecube.NewHistory(key, days[:len(days):len(days)]))
		}
	}
	stats := st.counts.Stats()
	if len(histories) == 0 {
		return nil, stats, fmt.Errorf("ingest: no fields clear the %d-change gate yet", st.cfg.MinChanges)
	}
	hs, err := changecube.NewHistorySet(clone, histories)
	if err != nil {
		return nil, stats, fmt.Errorf("ingest: snapshot: %w", err)
	}
	st.snapCP = Checkpoint{Pos: st.cursor, Ordinals: st.ordinalsLocked()}
	return hs, stats, nil
}

// takeSeed returns the epoch detector the staging was built from, once,
// and forgets it: the first retrain's TrainHints.Prev.
func (st *Staging) takeSeed() *core.Detector {
	st.mu.Lock()
	defer st.mu.Unlock()
	seed := st.seed
	st.seed = nil
	return seed
}

// ordinalsLocked reverses entIdx into a per-entity ordinal table. Caller
// holds the mutex.
func (st *Staging) ordinalsLocked() []int {
	ords := make([]int, st.cube.NumEntities())
	for key, id := range st.entIdx {
		ords[id] = key.ordinal
	}
	return ords
}

// SnapshotCheckpoint returns the feed checkpoint of the most recent
// successful Snapshot: the cursor and entity ordinals as of
// the instant the snapshot cube was cloned. The manager reads it after a
// retrain to persist an epoch whose source checkpoint matches the epoch's
// cube exactly.
func (st *Staging) SnapshotCheckpoint() Checkpoint {
	st.mu.Lock()
	defer st.mu.Unlock()
	cp := st.snapCP
	cp.Ordinals = append([]int(nil), cp.Ordinals...)
	return cp
}

// StagingStats is the point-in-time summary surfaced on /v1/ingest/stats.
type StagingStats struct {
	// Events is the total number of events appended.
	Events uint64 `json:"events"`
	// Changes is the number of raw staged changes (warm-start corpus
	// included).
	Changes int `json:"changes"`
	// Fields is the number of distinct fields seen.
	Fields int `json:"fields"`
	// EligibleFields counts fields currently clearing the MinChanges gate.
	EligibleFields int `json:"eligible_fields"`
	// FilteredChanges is the day-level change count over eligible fields —
	// the training-set size of the next retrain.
	FilteredChanges int `json:"filtered_changes"`
	// SpanStart/SpanEnd delimit the staged data (ISO dates; empty when no
	// changes are staged).
	SpanStart string `json:"span_start,omitempty"`
	SpanEnd   string `json:"span_end,omitempty"`
}

// Stats returns the current staging summary. It walks every staged field
// under the mutex to find the day span, so its cost grows with the corpus:
// it is meant for status surfaces, never for per-batch bookkeeping. The
// span needs every field's days, so the first call computes the funnel
// of every field still lazy.
func (st *Staging) Stats() StagingStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, buf := range st.fields {
		if buf.lazy() {
			st.materialize(buf)
		}
	}
	s := StagingStats{
		Events:          st.appended,
		Changes:         st.cube.NumChanges(),
		Fields:          len(st.fields),
		EligibleFields:  st.eligible,
		FilteredChanges: st.counts.AfterMinChanges,
	}
	if span := st.span(); span.Len() > 0 {
		s.SpanStart = span.Start.String()
		s.SpanEnd = span.End.String()
	}
	return s
}

// span is the day span over all filtered days. Caller holds the mutex.
func (st *Staging) span() timeline.Span {
	var first, last timeline.Day
	seen := false
	for _, buf := range st.fields {
		if len(buf.funnel.Days) == 0 {
			continue
		}
		f, l := buf.funnel.Days[0], buf.funnel.Days[len(buf.funnel.Days)-1]
		if !seen || f < first {
			first = f
		}
		if !seen || l > last {
			last = l
		}
		seen = true
	}
	if !seen {
		return timeline.Span{}
	}
	return timeline.Span{Start: first, End: last + 1}
}

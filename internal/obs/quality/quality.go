// Package quality is the model-plane observability layer: it watches
// whether the detector's stale alerts are actually borne out by the live
// feed. The paper's Table-1 precision is a one-shot offline number; a
// continuously retraining system needs the online analogue — of the
// fields we flagged as stale, how many did receive a change shortly
// after?
//
// The Scorer tracks that. On every epoch swap the serving layer snapshots
// the alert set (BeginEpoch); every previously-alerted (page, property)
// pair becomes a pending prediction with a deadline of alert day plus a
// configurable horizon, carrying the detector families whose votes fired
// for it. As live change events arrive (Observe), a pending alert whose
// field changes on or after its alert day and no later than its deadline
// scores *confirmed*; once the event-time watermark passes a pending
// alert's deadline with no such change, it scores *expired*. Confirmed /
// (confirmed + expired) is the rolling online-precision proxy, kept
// overall and per detector family, exported as wikistale_quality_*
// metrics and served as the GET /debug/quality report.
//
// All clocks here are event time (timeline.Day), never wall time: a
// historical replay scores exactly like a live feed, and the state
// machine is deterministic for a given event sequence — which is what
// lets the scorer's state persist in the epoch-store snapshot envelope
// and round-trip bit-identically through a restart.
package quality

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/obs"
	"github.com/wikistale/wikistale/internal/obs/ring"
	"github.com/wikistale/wikistale/internal/timeline"
)

// dayString renders a timeline day number as its ISO date — the form the
// report and recent-outcome ring use.
func dayString(d int32) string { return timeline.Day(d).String() }

// DefaultHorizonDays is the scoring horizon when none is configured: an
// alert not followed by a change within this many event-time days of its
// alert day expires.
const DefaultHorizonDays = 14

// DefaultMaxPending bounds the pending-alert map. Registrations beyond
// the cap are counted (wikistale_quality_alerts_dropped_total) and
// dropped — a runaway alert set must not grow serving memory without
// bound.
const DefaultMaxPending = 1 << 16

// recentCap bounds the scored-outcome ring kept for the /debug/quality
// report.
const recentCap = 32

// FamilySlug maps a predictor's display name (core.Detector.Predictors's
// Name values) to the bounded label the per-family metrics use:
// "field correlations" → "correlation", "association rules" →
// "assoc_rules", anything else lowercased with non-alphanumeric runs
// collapsed to one underscore ("mean baseline" → "mean_baseline",
// "AND-ensemble" → "and_ensemble").
func FamilySlug(name string) string {
	switch name {
	case "field correlations":
		return "correlation"
	case "association rules":
		return "assoc_rules"
	}
	var b strings.Builder
	b.Grow(len(name))
	pendingSep := false
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			if pendingSep && b.Len() > 0 {
				b.WriteByte('_')
			}
			pendingSep = false
			b.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			if pendingSep && b.Len() > 0 {
				b.WriteByte('_')
			}
			pendingSep = false
			b.WriteRune(r - 'A' + 'a')
		default:
			pendingSep = true
		}
	}
	if b.Len() == 0 {
		return "other"
	}
	return b.String()
}

// PendingAlert is one alerted field handed to BeginEpoch: the names the
// live feed will use to address it, plus the detector families whose
// votes fired for it (FamilySlug form).
type PendingAlert struct {
	Page     string
	Property string
	Families []string
}

// pending is one tracked prediction awaiting its outcome.
type pending struct {
	page, prop string
	alertDay   int32 // asOf of the epoch that asserted the alert
	deadline   int32 // alertDay + horizon, inclusive
	epoch      uint64
	families   []string
}

// outcomeCounts tallies scored outcomes for one scope (overall or one
// family).
type outcomeCounts struct {
	Confirmed uint64 `json:"confirmed"`
	Expired   uint64 `json:"expired"`
}

// precision is the online-precision proxy: confirmed / scored. Zero when
// nothing has been scored yet.
func (c outcomeCounts) precision() float64 {
	total := c.Confirmed + c.Expired
	if total == 0 {
		return 0
	}
	return float64(c.Confirmed) / float64(total)
}

// Outcome is one scored alert, kept in the bounded recent ring of the
// report.
type Outcome struct {
	Page     string   `json:"page"`
	Property string   `json:"property"`
	Outcome  string   `json:"outcome"` // "confirmed" or "expired"
	AlertDay string   `json:"alert_day"`
	Day      string   `json:"day"` // confirming change day, or the watermark day that expired it
	Epoch    uint64   `json:"epoch"`
	Families []string `json:"families,omitempty"`
}

// Scorer is the online alert-outcome tracker. Safe for concurrent use:
// swaps register alert sets from the retrain goroutine, the ingest loop
// observes events, and /debug/quality reads reports, all under one
// mutex. Nothing here runs on the request hot path.
type Scorer struct {
	mu         sync.Mutex
	horizon    int32
	maxPending int
	watermark  int32 // newest event day observed; 0 until the first event
	hasMark    bool
	epoch      uint64 // newest epoch registered
	epochAsOf  int32
	pend       map[string]*pending // key: page + "\x00" + property
	overall    outcomeCounts
	families   map[string]*outcomeCounts
	tracked    uint64 // alerts ever registered
	dropped    uint64 // registrations refused by the cap
	recent     *ring.Ring[Outcome]

	pendingGauge   *obs.Gauge
	trackedTotal   *obs.Counter
	droppedTotal   *obs.Counter
	precisionGauge *obs.Gauge
}

// New constructs a scorer. horizonDays <= 0 selects DefaultHorizonDays.
func New(horizonDays int) *Scorer {
	if horizonDays <= 0 {
		horizonDays = DefaultHorizonDays
	}
	reg := obs.Default
	reg.SetHelp("wikistale_quality_alerts_pending", "Alerted fields awaiting an outcome (confirm-or-expire).")
	reg.SetHelp("wikistale_quality_alerts_tracked_total", "Alerted fields registered for outcome scoring across all epochs.")
	reg.SetHelp("wikistale_quality_alerts_dropped_total", "Alert registrations refused because the pending cap was reached.")
	reg.SetHelp("wikistale_quality_alerts_scored_total", "Alert outcomes scored, by outcome (confirmed = change landed within the horizon, expired = it did not).")
	reg.SetHelp("wikistale_quality_family_scored_total", "Alert outcomes scored, by detector family and outcome.")
	reg.SetHelp("wikistale_quality_online_precision", "Rolling online-precision proxy: confirmed / (confirmed + expired); per-family with the family label.")
	reg.SetHelp("wikistale_quality_horizon_days", "Configured scoring horizon in event-time days.")
	s := &Scorer{
		horizon:        int32(horizonDays),
		maxPending:     DefaultMaxPending,
		pend:           make(map[string]*pending),
		families:       make(map[string]*outcomeCounts),
		recent:         ring.New[Outcome](recentCap),
		pendingGauge:   reg.Gauge("wikistale_quality_alerts_pending", nil),
		trackedTotal:   reg.Counter("wikistale_quality_alerts_tracked_total", nil),
		droppedTotal:   reg.Counter("wikistale_quality_alerts_dropped_total", nil),
		precisionGauge: reg.Gauge("wikistale_quality_online_precision", nil),
	}
	reg.Gauge("wikistale_quality_horizon_days", nil).Set(float64(horizonDays))
	return s
}

func pendKey(page, prop string) string { return page + "\x00" + prop }

// BeginEpoch registers a freshly swapped epoch's alert set: every alert
// not already pending becomes a prediction with deadline asOf + horizon.
// Alerts already pending (re-asserted by the new epoch) keep their
// original alert day and deadline — the first assertion is the
// prediction being scored. asOfDay is the epoch's data span end as a
// timeline.Day int.
func (s *Scorer) BeginEpoch(epochSeq uint64, asOfDay int32, alerts []PendingAlert) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch = epochSeq
	s.epochAsOf = asOfDay
	for _, a := range alerts {
		k := pendKey(a.Page, a.Property)
		if _, ok := s.pend[k]; ok {
			continue
		}
		if len(s.pend) >= s.maxPending {
			s.dropped++
			s.droppedTotal.Inc()
			continue
		}
		s.pend[k] = &pending{
			page:     a.Page,
			prop:     a.Property,
			alertDay: asOfDay,
			deadline: asOfDay + s.horizon,
			epoch:    epochSeq,
			families: a.Families,
		}
		s.tracked++
		s.trackedTotal.Inc()
	}
	s.pendingGauge.Set(float64(len(s.pend)))
}

// Observe feeds one live change event: a pending alert for (page,
// property) whose change day falls in [alert day, deadline] scores
// confirmed. Advancing the event-time watermark past pending deadlines
// expires them. Call once per event, in feed order.
func (s *Scorer) Observe(page, property string, day int32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.pend[pendKey(page, property)]; ok && day >= p.alertDay {
		if day <= p.deadline {
			s.scoreLocked(p, "confirmed", day)
		} else {
			s.scoreLocked(p, "expired", day)
		}
	}
	if !s.hasMark || day > s.watermark {
		s.watermark = day
		s.hasMark = true
		s.sweepLocked()
	}
	s.pendingGauge.Set(float64(len(s.pend)))
}

// sweepLocked expires every pending alert whose deadline the watermark
// has passed. Deterministic order (sorted keys) so the recent ring — and
// therefore the marshaled state — does not depend on map iteration.
func (s *Scorer) sweepLocked() {
	var due []string
	for k, p := range s.pend {
		if s.watermark > p.deadline {
			due = append(due, k)
		}
	}
	sort.Strings(due)
	for _, k := range due {
		s.scoreLocked(s.pend[k], "expired", s.watermark)
	}
}

// scoreLocked finalizes one pending alert's outcome and removes it.
func (s *Scorer) scoreLocked(p *pending, outcome string, day int32) {
	delete(s.pend, pendKey(p.page, p.prop))
	confirmed := outcome == "confirmed"
	if confirmed {
		s.overall.Confirmed++
	} else {
		s.overall.Expired++
	}
	reg := obs.Default
	reg.Counter("wikistale_quality_alerts_scored_total", obs.Labels{"outcome": outcome}).Inc()
	for _, fam := range p.families {
		fc := s.families[fam]
		if fc == nil {
			fc = &outcomeCounts{}
			s.families[fam] = fc
		}
		if confirmed {
			fc.Confirmed++
		} else {
			fc.Expired++
		}
		reg.Counter("wikistale_quality_family_scored_total", obs.Labels{"family": fam, "outcome": outcome}).Inc()
		reg.Gauge("wikistale_quality_online_precision", obs.Labels{"family": fam}).Set(fc.precision())
	}
	s.precisionGauge.Set(s.overall.precision())
	s.recent.Push(Outcome{
		Page:     p.page,
		Property: p.prop,
		Outcome:  outcome,
		AlertDay: dayString(p.alertDay),
		Day:      dayString(day),
		Epoch:    p.epoch,
		Families: p.families,
	})
}

// ScopeReport is one scope's scored totals plus the precision proxy.
type ScopeReport struct {
	Pending   int     `json:"pending,omitempty"`
	Confirmed uint64  `json:"confirmed"`
	Expired   uint64  `json:"expired"`
	Precision float64 `json:"precision"`
}

// FamilyReport is one detector family's row in the report.
type FamilyReport struct {
	Family string `json:"family"`
	ScopeReport
}

// Report is the GET /debug/quality payload.
type Report struct {
	HorizonDays int    `json:"horizon_days"`
	Epoch       uint64 `json:"epoch"`
	EpochAsOf   string `json:"epoch_asof,omitempty"`
	// Watermark is the newest event day observed (event time, not wall
	// time); empty before the first event.
	Watermark string `json:"watermark,omitempty"`
	// TrackedTotal counts alerts ever registered; Dropped those refused by
	// the pending cap.
	TrackedTotal uint64         `json:"tracked_total"`
	Dropped      uint64         `json:"dropped,omitempty"`
	Overall      ScopeReport    `json:"overall"`
	Families     []FamilyReport `json:"families,omitempty"`
	Recent       []Outcome      `json:"recent,omitempty"`
}

// Snapshot returns the current report. Families are sorted by slug so
// the payload is deterministic.
func (s *Scorer) Snapshot() Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := Report{
		HorizonDays:  int(s.horizon),
		Epoch:        s.epoch,
		TrackedTotal: s.tracked,
		Dropped:      s.dropped,
		Overall: ScopeReport{
			Pending:   len(s.pend),
			Confirmed: s.overall.Confirmed,
			Expired:   s.overall.Expired,
			Precision: s.overall.precision(),
		},
	}
	if s.epoch > 0 {
		r.EpochAsOf = dayString(s.epochAsOf)
	}
	if s.hasMark {
		r.Watermark = dayString(s.watermark)
	}
	slugs := make([]string, 0, len(s.families))
	for slug := range s.families {
		slugs = append(slugs, slug)
	}
	sort.Strings(slugs)
	for _, slug := range slugs {
		fc := s.families[slug]
		r.Families = append(r.Families, FamilyReport{
			Family: slug,
			ScopeReport: ScopeReport{
				Confirmed: fc.Confirmed,
				Expired:   fc.Expired,
				Precision: fc.precision(),
			},
		})
	}
	r.Recent = s.recent.Newest()
	return r
}

// State serialization: the scorer's event-time state machine persists in
// the epoch-store snapshot envelope, so a restart resumes scoring where
// the process left off instead of forgetting every pending prediction.
// The encoding is canonical — maps are walked in sorted order — so
// Restore(MarshalBinary()) followed by MarshalBinary() reproduces the
// exact same bytes (the restart round-trip test's contract). The
// configured horizon is deliberately NOT part of the state: it is
// configuration, and a restart with a new -quality-horizon must apply it
// to new alerts while pending ones keep their recorded deadlines.
const (
	stateMagic   = "WQS1"
	stateVersion = 1
)

func appendU32(buf []byte, v int32) []byte {
	return binary.AppendUvarint(buf, uint64(uint32(v)))
}

func appendStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// MarshalBinary serializes the scorer state canonically.
func (s *Scorer) MarshalBinary() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf := make([]byte, 0, 256)
	buf = append(buf, stateMagic...)
	buf = append(buf, stateVersion)
	flags := byte(0)
	if s.hasMark {
		flags |= 1
	}
	buf = append(buf, flags)
	buf = appendU32(buf, s.watermark)
	buf = binary.AppendUvarint(buf, s.epoch)
	buf = appendU32(buf, s.epochAsOf)
	buf = binary.AppendUvarint(buf, s.tracked)
	buf = binary.AppendUvarint(buf, s.dropped)
	buf = binary.AppendUvarint(buf, s.overall.Confirmed)
	buf = binary.AppendUvarint(buf, s.overall.Expired)

	slugs := make([]string, 0, len(s.families))
	for slug := range s.families {
		slugs = append(slugs, slug)
	}
	sort.Strings(slugs)
	buf = binary.AppendUvarint(buf, uint64(len(slugs)))
	for _, slug := range slugs {
		fc := s.families[slug]
		buf = appendStr(buf, slug)
		buf = binary.AppendUvarint(buf, fc.Confirmed)
		buf = binary.AppendUvarint(buf, fc.Expired)
	}

	keys := make([]string, 0, len(s.pend))
	for k := range s.pend {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	for _, k := range keys {
		p := s.pend[k]
		buf = appendStr(buf, p.page)
		buf = appendStr(buf, p.prop)
		buf = appendU32(buf, p.alertDay)
		buf = appendU32(buf, p.deadline)
		buf = binary.AppendUvarint(buf, p.epoch)
		buf = binary.AppendUvarint(buf, uint64(len(p.families)))
		for _, fam := range p.families {
			buf = appendStr(buf, fam)
		}
	}

	// Oldest first, so Restore's pushes rebuild the same ring.
	recent := s.recent.Newest()
	buf = binary.AppendUvarint(buf, uint64(len(recent)))
	for i := len(recent) - 1; i >= 0; i-- {
		o := recent[i]
		buf = appendStr(buf, o.Page)
		buf = appendStr(buf, o.Property)
		buf = appendStr(buf, o.Outcome)
		buf = appendStr(buf, o.AlertDay)
		buf = appendStr(buf, o.Day)
		buf = binary.AppendUvarint(buf, o.Epoch)
		buf = binary.AppendUvarint(buf, uint64(len(o.Families)))
		for _, fam := range o.Families {
			buf = appendStr(buf, fam)
		}
	}
	return buf
}

// Restore replaces the scorer's state with a MarshalBinary payload.
// Malformed input returns an error and leaves the scorer unchanged.
func (s *Scorer) Restore(data []byte) (err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("quality: state: %w", err)
		}
	}()
	if len(data) < len(stateMagic)+2 || string(data[:len(stateMagic)]) != stateMagic {
		return fmt.Errorf("bad magic")
	}
	if v := data[len(stateMagic)]; v != stateVersion {
		return fmt.Errorf("version %d, this build reads %d", v, stateVersion)
	}
	r := changecube.NewReader(data[len(stateMagic)+1:])
	flags, err := r.Byte("flags")
	if err != nil {
		return err
	}
	watermark, err := readU32(r, "watermark")
	if err != nil {
		return err
	}
	epoch, err := r.Uvarint("epoch")
	if err != nil {
		return err
	}
	epochAsOf, err := readU32(r, "epoch asof")
	if err != nil {
		return err
	}
	tracked, err := r.Uvarint("tracked")
	if err != nil {
		return err
	}
	dropped, err := r.Uvarint("dropped")
	if err != nil {
		return err
	}
	confirmed, err := r.Uvarint("confirmed")
	if err != nil {
		return err
	}
	expired, err := r.Uvarint("expired")
	if err != nil {
		return err
	}
	nfam, err := r.Count("families")
	if err != nil {
		return err
	}
	families := make(map[string]*outcomeCounts, nfam)
	for i := 0; i < nfam; i++ {
		slug, err := readStr(r, "family slug")
		if err != nil {
			return err
		}
		c, err := r.Uvarint("family confirmed")
		if err != nil {
			return err
		}
		e, err := r.Uvarint("family expired")
		if err != nil {
			return err
		}
		families[slug] = &outcomeCounts{Confirmed: c, Expired: e}
	}
	npend, err := r.Count("pending")
	if err != nil {
		return err
	}
	pend := make(map[string]*pending, npend)
	for i := 0; i < npend; i++ {
		p := &pending{}
		if p.page, err = readStr(r, "pending page"); err != nil {
			return err
		}
		if p.prop, err = readStr(r, "pending property"); err != nil {
			return err
		}
		if p.alertDay, err = readU32(r, "pending alert day"); err != nil {
			return err
		}
		if p.deadline, err = readU32(r, "pending deadline"); err != nil {
			return err
		}
		if p.epoch, err = r.Uvarint("pending epoch"); err != nil {
			return err
		}
		nf, err := r.Count("pending families")
		if err != nil {
			return err
		}
		for j := 0; j < nf; j++ {
			fam, err := readStr(r, "pending family")
			if err != nil {
				return err
			}
			p.families = append(p.families, fam)
		}
		pend[pendKey(p.page, p.prop)] = p
	}
	nrec, err := r.Count("recent")
	if err != nil {
		return err
	}
	recent := ring.New[Outcome](recentCap)
	for i := 0; i < nrec; i++ {
		var o Outcome
		if o.Page, err = readStr(r, "recent page"); err != nil {
			return err
		}
		if o.Property, err = readStr(r, "recent property"); err != nil {
			return err
		}
		if o.Outcome, err = readStr(r, "recent outcome"); err != nil {
			return err
		}
		if o.AlertDay, err = readStr(r, "recent alert day"); err != nil {
			return err
		}
		if o.Day, err = readStr(r, "recent day"); err != nil {
			return err
		}
		if o.Epoch, err = r.Uvarint("recent epoch"); err != nil {
			return err
		}
		nf, err := r.Count("recent families")
		if err != nil {
			return err
		}
		for j := 0; j < nf; j++ {
			fam, err := readStr(r, "recent family")
			if err != nil {
				return err
			}
			o.Families = append(o.Families, fam)
		}
		recent.Push(o)
	}
	if r.Len() != 0 {
		return fmt.Errorf("%d trailing bytes", r.Len())
	}

	s.mu.Lock()
	s.hasMark = flags&1 != 0
	s.watermark = watermark
	s.epoch = epoch
	s.epochAsOf = epochAsOf
	s.tracked = tracked
	s.dropped = dropped
	s.overall = outcomeCounts{Confirmed: confirmed, Expired: expired}
	s.families = families
	s.pend = pend
	s.recent = recent
	s.pendingGauge.Set(float64(len(s.pend)))
	s.precisionGauge.Set(s.overall.precision())
	for slug, fc := range families {
		obs.Default.Gauge("wikistale_quality_online_precision", obs.Labels{"family": slug}).Set(fc.precision())
	}
	s.mu.Unlock()
	return nil
}

// readU32 reads appendU32's encoding: a uvarint that must fit 32 bits.
func readU32(r *changecube.Reader, what string) (int32, error) {
	v, err := r.Uvarint(what)
	if err != nil {
		return 0, err
	}
	if v > 1<<32-1 {
		return 0, fmt.Errorf("%s out of range", what)
	}
	return int32(uint32(v)), nil
}

// readStr reads appendStr's encoding: a length-prefixed string.
func readStr(r *changecube.Reader, what string) (string, error) {
	b, err := r.Bytes(what)
	return string(b), err
}

// Package slo tracks service-level objectives over rolling time windows
// and computes burn rates — the language operators actually alert in.
//
// An Objective classifies every request as good or bad: either by latency
// ("99% of requests complete within 5 ms") or by outcome ("99.9% of
// requests do not 5xx"). The Tracker keeps per-second good/bad counts in a
// fixed ring sized to the longest window, so a Record costs a few
// nanoseconds of bucketed arithmetic and the memory bound is static no
// matter the request rate.
//
// The burn rate of a window is the rate at which the error budget is
// being consumed: badFraction / (1 - target). A burn rate of 1 means the
// budget is being spent exactly as fast as the objective allows; 14.4
// over 5 minutes is the classic "page now" fast burn (it exhausts a
// 30-day budget in ~2 days). The Tracker's trip policy follows the
// multi-window form: it fires only when both a short and a long window
// burn above the threshold — the short window proves the problem is
// happening *now*, the long one proves it is not a blip. staleserve wires
// a tripped policy to triggered profiling, so a latency regression under
// load leaves a pprof behind (see internal/obs/profilering).
package slo

import (
	"fmt"
	"sync"
	"time"

	"github.com/wikistale/wikistale/internal/obs"
)

// Metric names published by Publish.
const (
	BurnRateGauge    = "wikistale_slo_burn_rate"
	BadFractionGauge = "wikistale_slo_bad_fraction"
	EventsGauge      = "wikistale_slo_window_events"
	TripsTotal       = "wikistale_slo_trips_total"
)

// Objective is one service-level objective. Target is the required good
// fraction (e.g. 0.99). When LatencyThreshold > 0 a request is bad if it
// took longer than the threshold; otherwise a request is bad if the
// caller marked it an error (the availability form).
type Objective struct {
	Name             string        `json:"name"`
	Target           float64       `json:"target"`
	LatencyThreshold time.Duration `json:"latency_threshold_ns,omitempty"`
}

// bad classifies one request under this objective.
func (o Objective) bad(latency time.Duration, isError bool) bool {
	if o.LatencyThreshold > 0 {
		return latency > o.LatencyThreshold || isError
	}
	return isError
}

// TripPolicy is the multi-window burn-rate alerting rule. Zero value
// means "never trips".
type TripPolicy struct {
	// ShortWindow and LongWindow must both be windows the tracker was
	// built with.
	ShortWindow time.Duration `json:"short_window_ns"`
	LongWindow  time.Duration `json:"long_window_ns"`
	// BurnThreshold is the burn rate both windows must exceed (>=).
	BurnThreshold float64 `json:"burn_threshold"`
	// MinEvents is the minimum event count in the short window before the
	// policy may trip; it keeps a cold start or a trickle of traffic from
	// paging on three requests.
	MinEvents uint64 `json:"min_events"`
}

// WindowStat is the state of one objective over one window.
type WindowStat struct {
	Window      string  `json:"window"`
	Total       uint64  `json:"total"`
	Bad         uint64  `json:"bad"`
	BadFraction float64 `json:"bad_fraction"`
	// BurnRate is BadFraction / (1 - Target): 1.0 consumes the error
	// budget exactly at the allowed rate.
	BurnRate float64 `json:"burn_rate"`
}

// ObjectiveReport is the snapshot of one objective across every window.
type ObjectiveReport struct {
	Objective Objective    `json:"objective"`
	Windows   []WindowStat `json:"windows"`
	// Tripping reports whether the trip policy currently holds for this
	// objective.
	Tripping bool `json:"tripping"`
}

// Report is the full tracker snapshot, the JSON body of /debug/slo.
type Report struct {
	Policy     TripPolicy        `json:"policy"`
	Objectives []ObjectiveReport `json:"objectives"`
	// TripsTotal counts CheckTrips calls that found at least one tripping
	// objective.
	TripsTotal uint64 `json:"trips_total"`
}

// cell is one second of per-objective counts.
type cell struct {
	sec    int64 // unix second this cell currently represents
	total  []uint64
	bad    []uint64
	filled bool
}

// Tracker records request outcomes and answers window/burn-rate queries.
// All methods are safe for concurrent use.
type Tracker struct {
	objectives []Objective
	windows    []time.Duration
	policy     TripPolicy
	now        func() time.Time

	mu         sync.Mutex
	cells      []cell
	trips      uint64
	published  uint64          // trips already added to the TripsTotal counter
	lastActive map[string]bool // objective name → tripping at last CheckTrips
}

// New builds a tracker over the given objectives and windows (both must
// be non-empty; windows are truncated to whole seconds, minimum 1s). The
// ring is sized to the longest window.
func New(objectives []Objective, windows []time.Duration, policy TripPolicy) *Tracker {
	return NewWithClock(objectives, windows, policy, time.Now)
}

// NewWithClock is New with an injectable clock for tests.
func NewWithClock(objectives []Objective, windows []time.Duration, policy TripPolicy, now func() time.Time) *Tracker {
	if len(objectives) == 0 {
		panic("slo: no objectives")
	}
	if len(windows) == 0 {
		panic("slo: no windows")
	}
	ws := make([]time.Duration, len(windows))
	var longest time.Duration
	for i, w := range windows {
		if w < time.Second {
			w = time.Second
		}
		ws[i] = w.Truncate(time.Second)
		if ws[i] > longest {
			longest = ws[i]
		}
	}
	t := &Tracker{
		objectives: append([]Objective(nil), objectives...),
		windows:    ws,
		policy:     policy,
		now:        now,
		cells:      make([]cell, int(longest/time.Second)),
		lastActive: make(map[string]bool),
	}
	for i := range t.cells {
		t.cells[i].total = make([]uint64, len(objectives))
		t.cells[i].bad = make([]uint64, len(objectives))
	}
	return t
}

// Record classifies one request under every objective and counts it into
// the current second.
func (t *Tracker) Record(latency time.Duration, isError bool) {
	sec := t.now().Unix()
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.cell(sec)
	for i, o := range t.objectives {
		c.total[i]++
		if o.bad(latency, isError) {
			c.bad[i]++
		}
	}
}

// cell returns the ring cell for the given second, resetting it when the
// ring has wrapped past its previous tenant. Callers hold t.mu.
func (t *Tracker) cell(sec int64) *cell {
	c := &t.cells[int(sec%int64(len(t.cells)))]
	if c.sec != sec || !c.filled {
		c.sec = sec
		c.filled = true
		for i := range c.total {
			c.total[i], c.bad[i] = 0, 0
		}
	}
	return c
}

// windowCounts sums (total, bad) for objective i over the window ending
// now. Callers hold t.mu.
func (t *Tracker) windowCounts(i int, w time.Duration, nowSec int64) (total, bad uint64) {
	secs := int64(w / time.Second)
	if secs > int64(len(t.cells)) {
		secs = int64(len(t.cells))
	}
	// The window covers (nowSec-secs, nowSec]: the current (partial)
	// second counts, the cell that would be overwritten next does not.
	for s := nowSec - secs + 1; s <= nowSec; s++ {
		c := &t.cells[int(((s%int64(len(t.cells)))+int64(len(t.cells)))%int64(len(t.cells)))]
		if c.filled && c.sec == s {
			total += c.total[i]
			bad += c.bad[i]
		}
	}
	return total, bad
}

// burn computes the burn rate for counts under an objective.
func burn(o Objective, total, bad uint64) (badFraction, burnRate float64) {
	if total == 0 {
		return 0, 0
	}
	badFraction = float64(bad) / float64(total)
	budget := 1 - o.Target
	if budget <= 0 {
		// A 100% objective has no budget; any badness is an infinite
		// burn. Represent as badFraction / epsilon-free large value.
		if bad > 0 {
			return badFraction, badFraction / 1e-9
		}
		return badFraction, 0
	}
	return badFraction, badFraction / budget
}

// Snapshot returns the full report: every objective over every window,
// plus the current trip state.
func (t *Tracker) Snapshot() Report {
	nowSec := t.now().Unix()
	t.mu.Lock()
	defer t.mu.Unlock()
	rep := Report{Policy: t.policy, TripsTotal: t.trips}
	for i, o := range t.objectives {
		or := ObjectiveReport{Objective: o, Tripping: t.tripping(i, nowSec)}
		for _, w := range t.windows {
			total, bad := t.windowCounts(i, w, nowSec)
			bf, br := burn(o, total, bad)
			or.Windows = append(or.Windows, WindowStat{
				Window:      w.String(),
				Total:       total,
				Bad:         bad,
				BadFraction: bf,
				BurnRate:    br,
			})
		}
		rep.Objectives = append(rep.Objectives, or)
	}
	return rep
}

// tripping evaluates the policy for objective i. Callers hold t.mu.
func (t *Tracker) tripping(i int, nowSec int64) bool {
	p := t.policy
	if p.BurnThreshold <= 0 || p.ShortWindow <= 0 || p.LongWindow <= 0 {
		return false
	}
	sTotal, sBad := t.windowCounts(i, p.ShortWindow, nowSec)
	if sTotal < p.MinEvents {
		return false
	}
	_, sBurn := burn(t.objectives[i], sTotal, sBad)
	if sBurn < p.BurnThreshold {
		return false
	}
	lTotal, lBad := t.windowCounts(i, p.LongWindow, nowSec)
	_, lBurn := burn(t.objectives[i], lTotal, lBad)
	return lBurn >= p.BurnThreshold
}

// Trip describes one objective found tripping by CheckTrips.
type Trip struct {
	Objective Objective
	// ShortBurn and LongBurn are the burn rates that crossed the policy.
	ShortBurn, LongBurn float64
}

// CheckTrips evaluates the trip policy for every objective and returns
// the objectives that just *started* tripping — an objective that was
// already tripping at the previous CheckTrips is not reported again until
// it recovers first (edge triggering, so one sustained incident captures
// one profile, not one per second).
func (t *Tracker) CheckTrips() []Trip {
	nowSec := t.now().Unix()
	t.mu.Lock()
	defer t.mu.Unlock()
	var fired []Trip
	for i, o := range t.objectives {
		active := t.tripping(i, nowSec)
		if active && !t.lastActive[o.Name] {
			sTotal, sBad := t.windowCounts(i, t.policy.ShortWindow, nowSec)
			lTotal, lBad := t.windowCounts(i, t.policy.LongWindow, nowSec)
			_, sBurn := burn(o, sTotal, sBad)
			_, lBurn := burn(o, lTotal, lBad)
			fired = append(fired, Trip{Objective: o, ShortBurn: sBurn, LongBurn: lBurn})
		}
		t.lastActive[o.Name] = active
	}
	t.trips += uint64(len(fired))
	return fired
}

// Publish refreshes the wikistale_slo_* gauges in reg from the current
// state. Call at scrape time, the same pattern as epoch age: gauges set
// only when something happens freeze during quiet periods, which is the
// exact failure SLO gauges exist to expose.
func (t *Tracker) Publish(reg *obs.Registry) {
	reg.SetHelp(BurnRateGauge, "Error-budget burn rate per objective and window (1.0 = spending exactly the allowed budget).")
	reg.SetHelp(BadFractionGauge, "Fraction of requests violating the objective, per window.")
	reg.SetHelp(EventsGauge, "Requests observed in the window.")
	reg.SetHelp(TripsTotal, "Times the multi-window burn-rate policy started tripping.")
	rep := t.Snapshot()
	for _, or := range rep.Objectives {
		for _, w := range or.Windows {
			l := obs.Labels{"objective": or.Objective.Name, "window": w.Window}
			reg.Gauge(BurnRateGauge, l).Set(w.BurnRate)
			reg.Gauge(BadFractionGauge, l).Set(w.BadFraction)
			reg.Gauge(EventsGauge, l).Set(float64(w.Total))
		}
	}
	t.mu.Lock()
	delta := t.trips - t.published
	t.published = t.trips
	t.mu.Unlock()
	reg.Counter(TripsTotal, nil).Add(delta)
}

// Describe renders one objective as a human-readable sentence for
// /statusz: "99% of requests < 5ms" or "99.9% of requests succeed".
func Describe(o Objective) string {
	pct := o.Target * 100
	if o.LatencyThreshold > 0 {
		return fmt.Sprintf("%g%% of requests < %s", pct, o.LatencyThreshold)
	}
	return fmt.Sprintf("%g%% of requests succeed", pct)
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public functions it calls.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	// Req is the 1-based index of the request the span serves, 0 for spans
	// outside a request (ingest, retrains, boots).
	Req   int64     `json:"req,omitempty"`
	Name  string    `json:"name"`
	Start time.Time `json:"-"`
	End   time.Time `json:"-"`
	// Replayed marks a detector call re-run after the measured phase on a
	// request's key, to time work the server did inside that request. Its
	// duration, not its interval, is subtracted from the parent's self
	// time.
	Replayed bool           `json:"replayed,omitempty"`
	Attrs    map[string]any `json:"attrs,omitempty"`
}

// spanLog keeps a run's spans in memory until the run ends.
type spanLog struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) newID() uint64 { return l.ids.Add(1) }

// add records s, assigning an ID when it has none, and returns the ID.
func (l *spanLog) add(s span) uint64 {
	if s.ID == 0 {
		s.ID = l.newID()
	}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
	return s.ID
}

// timed records a span named name around fn.
func (l *spanLog) timed(name string, fn func()) {
	start := time.Now()
	fn()
	l.add(span{Name: name, Start: start, End: time.Now()})
}

// layerStats summarizes every span of one name.
type layerStats struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
	P50US  float64 `json:"p50_us"`
	P99US  float64 `json:"p99_us"`
	MaxUS  float64 `json:"max_us"`
	// SelfP50US and SelfP99US are quantiles of per-span self time.
	SelfP50US float64 `json:"self_p50_us"`
	SelfP99US float64 `json:"self_p99_us"`
}

// summary computes per-name totals and quantiles. A span's self time is
// its duration minus the part of its interval its children cover, minus
// the durations of its replayed children, never below zero.
func (l *spanLog) summary() map[string]*layerStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := map[uint64][]*span{}
	for i := range l.spans {
		s := &l.spans[i]
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	for i := range l.spans {
		s := &l.spans[i]
		d := s.End.Sub(s.Start).Seconds()
		self := d - covered(s, children[s.ID])
		if self < 0 {
			self = 0
		}
		durs[s.Name] = append(durs[s.Name], d)
		selfs[s.Name] = append(selfs[s.Name], self)
	}
	out := map[string]*layerStats{}
	for name, d := range durs {
		self := selfs[name]
		st := &layerStats{Name: name, Count: len(d), TotalS: sum(d), SelfS: sum(self)}
		sort.Float64s(d)
		sort.Float64s(self)
		st.P50US = 1e6 * quantile(d, 0.5)
		st.P99US = 1e6 * quantile(d, 0.99)
		st.MaxUS = 1e6 * d[len(d)-1]
		st.SelfP50US = 1e6 * quantile(self, 0.5)
		st.SelfP99US = 1e6 * quantile(self, 0.99)
		out[name] = st
	}
	return out
}

// covered returns the seconds of parent's interval its children account
// for: the union of the live children's intervals clipped to the parent,
// plus the replayed children's durations.
func covered(parent *span, kids []*span) float64 {
	var replayed float64
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		if k.Replayed {
			replayed += k.End.Sub(k.Start).Seconds()
			continue
		}
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total.Seconds() + replayed
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// write stores the spans as dir/trace.jsonl (one span per line, times in
// nanoseconds since the run started) and the per-name summary as
// dir/trace_summary.json, and prints the summary, largest self time first.
func (l *spanLog) write(dir string, w io.Writer) error {
	sum := l.summary()
	f, err := os.Create(filepath.Join(dir, "trace.jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	l.mu.Lock()
	for _, s := range l.spans {
		line := struct {
			span
			StartNS int64 `json:"start_ns"`
			EndNS   int64 `json:"end_ns"`
		}{s, s.Start.Sub(l.t0).Nanoseconds(), s.End.Sub(l.t0).Nanoseconds()}
		if err := enc.Encode(line); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	rows := make([]*layerStats, 0, len(sum))
	for _, st := range sum {
		rows = append(rows, st)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfS > rows[j].SelfS })
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "trace_summary.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-34s %8s %10s %10s %10s %10s\n", "span", "count", "total_s", "self_s", "p50_us", "p99_us")
	for _, st := range rows {
		fmt.Fprintf(w, "%-34s %8d %10.3f %10.3f %10.1f %10.1f\n", st.Name, st.Count, st.TotalS, st.SelfS, st.P50US, st.P99US)
	}
	return nil
}

package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered family in the Prometheus text
// exposition format (version 0.0.4): HELP and TYPE comments followed by
// one line per series, families and series in deterministic sorted order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.snapshot() {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.ordered() {
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f famView, s *series) error {
	switch f.kind {
	case KindCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, formatLabels(s.labels, "", ""), s.c.Value())
		return err
	case KindGauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, formatLabels(s.labels, "", ""), formatFloat(s.g.Value()))
		return err
	case KindHistogram:
		bounds, cum := s.h.Buckets()
		for i, b := range bounds {
			le := formatFloat(b)
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, formatLabels(s.labels, "le", le), cum[i]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, formatLabels(s.labels, "le", "+Inf"), s.h.Count()); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, formatLabels(s.labels, "", ""), formatFloat(s.h.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, formatLabels(s.labels, "", ""), s.h.Count())
		return err
	}
	return nil
}

// JSONSeries is the JSON shape of one labeled series. Value is set for
// counters and gauges; Count, Sum, and Buckets for histograms (Buckets
// maps upper bound to cumulative count, excluding +Inf which equals
// Count). Exemplars maps bucket upper bounds to the most recent
// trace-linked observation in that bucket, when any request or stage ran
// under a trace.
type JSONSeries struct {
	Labels    map[string]string   `json:"labels,omitempty"`
	Value     *float64            `json:"value,omitempty"`
	Count     *uint64             `json:"count,omitempty"`
	Sum       *float64            `json:"sum,omitempty"`
	Buckets   map[string]uint64   `json:"buckets,omitempty"`
	Exemplars map[string]Exemplar `json:"exemplars,omitempty"`
}

// JSONFamily is the JSON shape of one metric family.
type JSONFamily struct {
	Type   string       `json:"type"`
	Help   string       `json:"help,omitempty"`
	Series []JSONSeries `json:"series"`
}

// JSON returns the registry contents as a name → family map.
func (r *Registry) JSON() map[string]JSONFamily {
	out := make(map[string]JSONFamily)
	for _, f := range r.snapshot() {
		jf := JSONFamily{Type: f.kind.String(), Help: f.help}
		for _, s := range f.ordered() {
			js := JSONSeries{Labels: s.labels}
			switch f.kind {
			case KindCounter:
				v := float64(s.c.Value())
				js.Value = &v
			case KindGauge:
				v := s.g.Value()
				js.Value = &v
			case KindHistogram:
				count, sum := s.h.Count(), s.h.Sum()
				js.Count, js.Sum = &count, &sum
				bounds, cum := s.h.Buckets()
				js.Buckets = make(map[string]uint64, len(bounds))
				for i, b := range bounds {
					js.Buckets[formatFloat(b)] = cum[i]
				}
				js.Exemplars = s.h.Exemplars()
			}
			jf.Series = append(jf.Series, js)
		}
		out[f.name] = jf
	}
	return out
}

// WriteJSON renders the registry as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.JSON())
}

// famView is a consistent copy of one family taken under the registry
// mutex. The series structs themselves are shared — their values are
// atomics, safe to read while writers keep updating.
type famView struct {
	name   string
	help   string
	kind   Kind
	series []*series
}

func (f famView) ordered() []*series { return f.series }

// snapshot copies every family (name-sorted) and its series (label-key
// sorted) under the registry mutex, so rendering never races with
// concurrent series registration.
func (r *Registry) snapshot() []famView {
	r.mu.Lock()
	views := make([]famView, 0, len(r.families))
	for _, f := range r.families {
		v := famView{name: f.name, help: f.help, kind: f.kind,
			series: make([]*series, 0, len(f.series))}
		for _, s := range f.series {
			v.series = append(v.series, s)
		}
		sort.Slice(v.series, func(i, j int) bool { return v.series[i].key < v.series[j].key })
		views = append(views, v)
	}
	r.mu.Unlock()
	sort.Slice(views, func(i, j int) bool { return views[i].name < views[j].name })
	return views
}

// formatLabels renders {k="v",...}, optionally appending one extra pair
// (used for histogram le labels). Returns "" when there are no labels.
func formatLabels(l Labels, extraKey, extraVal string) string {
	if len(l) == 0 && extraKey == "" {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l[k]))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraVal))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

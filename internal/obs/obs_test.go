package obs

import (
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Re-resolve the series every few iterations: registration
			// must be concurrency-safe, not just the increments.
			c := r.Counter("test_total", Labels{"worker": "shared"})
			for i := 0; i < perWorker; i++ {
				if i%100 == 0 {
					c = r.Counter("test_total", Labels{"worker": "shared"})
				}
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("test_total", Labels{"worker": "shared"}).Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_gauge", nil)
	g.Set(3.5)
	g.Add(1.5)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %v, want 5", got)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				g.Inc()
				g.Dec()
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge after balanced inc/dec = %v, want 5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", []float64{0.1, 1, 10}, nil)
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if want := 0.05 + 0.1 + 0.5 + 2 + 100; math.Abs(h.Sum()-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", h.Sum(), want)
	}
	bounds, cum := h.Buckets()
	wantCum := []uint64{2, 3, 4} // le=0.1: {0.05, 0.1}; le=1: +0.5; le=10: +2
	for i := range bounds {
		if cum[i] != wantCum[i] {
			t.Errorf("bucket le=%v cumulative = %d, want %d", bounds[i], cum[i], wantCum[i])
		}
	}
	// Cumulative counts must be monotone and end at Count() via +Inf.
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("cumulative counts not monotone: %v", cum)
		}
	}
	if cum[len(cum)-1] > h.Count() {
		t.Fatalf("last bound cumulative %d exceeds count %d", cum[len(cum)-1], h.Count())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_conc_seconds", []float64{1}, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
	if math.Abs(h.Sum()-4000) > 1e-6 {
		t.Fatalf("sum = %v, want 4000", h.Sum())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("metric_total", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on kind mismatch")
		}
	}()
	r.Gauge("metric_total", nil)
}

// promLine matches one sample line of the text exposition format.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (?:[0-9.eE+-]+|\+Inf|NaN)$`)

func TestPrometheusRendering(t *testing.T) {
	r := NewRegistry()
	r.SetHelp("requests_total", "Requests served.")
	r.Counter("requests_total", Labels{"route": "/x", "method": "GET"}).Add(7)
	r.Gauge("in_flight", nil).Set(2)
	r.Histogram("latency_seconds", []float64{0.1, 1}, Labels{"route": "/x"}).Observe(0.05)

	text := promText(r)
	for _, want := range []string{
		"# HELP requests_total Requests served.",
		"# TYPE requests_total counter",
		`requests_total{method="GET",route="/x"} 7`,
		"# TYPE in_flight gauge",
		"in_flight 2",
		"# TYPE latency_seconds histogram",
		`latency_seconds_bucket{route="/x",le="0.1"} 1`,
		`latency_seconds_bucket{route="/x",le="+Inf"} 1`,
		`latency_seconds_sum{route="/x"} 0.05`,
		`latency_seconds_count{route="/x"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("rendering lacks %q:\n%s", want, text)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("odd_total", Labels{"v": "a\"b\\c\nd"}).Inc()
	text := promText(r)
	if !strings.Contains(text, `odd_total{v="a\"b\\c\nd"} 1`) {
		t.Fatalf("escaping wrong:\n%s", text)
	}
}

func TestJSONRendering(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_total", Labels{"route": "/x"}).Add(3)
	r.Histogram("latency_seconds", []float64{1}, nil).Observe(0.5)

	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]JSONFamily
	if err := json.Unmarshal([]byte(b.String()), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	c := decoded["requests_total"]
	if c.Type != "counter" || len(c.Series) != 1 || *c.Series[0].Value != 3 {
		t.Fatalf("counter JSON = %+v", c)
	}
	h := decoded["latency_seconds"]
	if h.Type != "histogram" || *h.Series[0].Count != 1 || h.Series[0].Buckets["1"] != 1 {
		t.Fatalf("histogram JSON = %+v", h)
	}
}

func TestSpanRecordsStageHistogram(t *testing.T) {
	r := NewRegistry()
	sp := r.StartSpan("test/stage")
	time.Sleep(time.Millisecond)
	d := sp.End()
	if d <= 0 {
		t.Fatalf("duration = %v", d)
	}
	h := r.Histogram(StageHistogram, nil, Labels{"stage": "test/stage"})
	if h.Count() != 1 {
		t.Fatalf("stage histogram count = %d, want 1", h.Count())
	}
	if h.Sum() <= 0 {
		t.Fatalf("stage histogram sum = %v", h.Sum())
	}
}

func TestRenderDuringConcurrentRegistration(t *testing.T) {
	r := NewRegistry()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			r.Counter("churn_total", Labels{"i": string(rune('a' + i%26))}).Inc()
			r.observeStage("churn", time.Microsecond, "")
		}
	}()
	for i := 0; i < 50; i++ {
		_ = promText(r)
		_ = r.JSON()
	}
	<-done
}

func TestSetHelpBeforeRegistration(t *testing.T) {
	r := NewRegistry()
	r.SetHelp("later_total", "Arrives before the metric.")
	r.Counter("later_total", nil).Inc()
	if !strings.Contains(promText(r), "# HELP later_total Arrives before the metric.") {
		t.Fatal("stashed help lost")
	}
}

// promText renders the registry's Prometheus exposition into a string.
func promText(r *Registry) string {
	var b strings.Builder
	_ = r.WritePrometheus(&b)
	return b.String()
}

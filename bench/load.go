package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"github.com/wikistale/wikistale/internal/timeline"
)

// call is one request of a workload's stream.
type call struct {
	route  string // "field", "explain" or "stale"
	path   string // path and query
	field  fieldName
	asOf   timeline.Day // 0: no asof parameter, the epoch's newest day
	window int
}

// mix is a request population: route weights, and whether requests ask
// about the past (audit) or about now (dashboards).
type mix struct {
	field, explain, stale int
	// audit draws asof uniformly from the span's last 365 days and window
	// from {1, 7, 30, 365}: 1460 alert-cache keys against 32 entries.
	audit bool
}

var (
	// hotMix is the reader-marker and dashboard mix: no asof, stale windows
	// 7/14/30, so every staleness lookup is an alert-cache hit.
	hotMix = mix{field: 60, explain: 20, stale: 20}
	// auditMix asks about past days, so nearly every lookup runs the
	// detector.
	auditMix = mix{field: 40, explain: 20, stale: 40, audit: true}
)

var (
	hotWindows   = []int{7, 14, 30}
	auditWindows = []int{1, 7, 30, 365}
)

// calls draws n requests. Fields are zipf(1.1)-popular over the catalog
// (already shuffled by seed, so popularity is not alphabetical).
func (m mix) calls(rng *rand.Rand, n int, catalog []fieldName, span timeline.Span) []call {
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(catalog)-1))
	total := m.field + m.explain + m.stale
	out := make([]call, n)
	for i := range out {
		c := &out[i]
		switch r := rng.Intn(total); {
		case r < m.field:
			c.route = "field"
		case r < m.field+m.explain:
			c.route = "explain"
		default:
			c.route = "stale"
		}
		q := url.Values{}
		if m.audit {
			c.asOf = span.End - 1 - timeline.Day(rng.Intn(365))
			c.window = auditWindows[rng.Intn(len(auditWindows))]
			q.Set("asof", c.asOf.String())
			q.Set("window", fmt.Sprint(c.window))
		} else if c.route == "stale" {
			c.window = hotWindows[rng.Intn(len(hotWindows))]
			q.Set("window", fmt.Sprint(c.window))
		}
		if c.route == "stale" {
			q.Set("limit", "50")
		} else {
			c.field = catalog[zipf.Uint64()]
			q.Set("page", c.field.page)
			q.Set("property", c.field.property)
		}
		c.path = "/v1/" + c.route + "?" + q.Encode()
	}
	return out
}

// doFunc issues call i of a stream. parent is the span the call belongs to
// in a traced run (0 otherwise); keep asks for the response body.
type doFunc func(i int, c *call, parent uint64, keep bool) (status int, body []byte, err error)

// sample is one response kept for the output checks.
type sample struct {
	path string
	body []byte
}

// loopStats is one open-loop phase.
type loopStats struct {
	lat      []float64 // seconds per completed request, release → response read, ascending
	late     []float64 // seconds per arrival: scheduled slot → release
	queueMax int       // deepest dispatch queue seen at a release
	sent     int
	dropped  int
	failed   int
	samples  []sample

	// Per completed request, its latency and index in calls; and the parts
	// the phase ran in.
	reqLat []float64
	reqIdx []int
	parts  []part
}

// part is a stretch of a phase run without a pause: calls[first:end],
// released between from and to.
type part struct {
	from, to   time.Time
	first, end int
}

// pauses cuts a phase into parts: after every `every` releases the loop
// waits until each released request has completed, calls pause, and starts
// the schedule afresh.
type pauses struct {
	every int
	pause func()
}

// openLoop releases calls[i] at start + i/rate and serves them with conns
// workers (one HTTP connection each). Latency runs from the moment the
// dispatcher released the request, so time spent queued behind a slow
// response is charged to the server; how late the dispatcher's timer fired
// relative to the slot is the generator's own error and is recorded apart,
// in late. Arrivals that find the queue (one second of arrivals) full are
// dropped and count as failures. Every sampleEvery-th body is kept. With
// p set, the phase runs in parts (see pauses).
func openLoop(ctx context.Context, start time.Time, calls []call, rate float64, conns int, do doFunc, sampleEvery int, spans *spanLog, t *tally, p *pauses) *loopStats {
	interval := time.Duration(float64(time.Second) / rate)
	released := make([]time.Time, len(calls))
	lat := make([]float64, len(calls))
	ok := make([]bool, len(calls))
	queue := make(chan int, max(64, int(rate)))
	st := &loopStats{late: make([]float64, 0, len(calls))}

	var wg, inflight sync.WaitGroup
	var mu sync.Mutex // guards st.samples and st.failed
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				c := &calls[i]
				var parent uint64
				if spans != nil {
					parent = spans.newID()
				}
				keep := sampleEvery > 0 && i%sampleEvery == 0
				status, body, err := do(i, c, parent, keep)
				end := time.Now()
				lat[i] = end.Sub(released[i]).Seconds()
				ok[i] = err == nil && status == http.StatusOK
				if spans != nil {
					spans.add(span{ID: parent, Req: int64(i) + 1, Name: "loadgen.request", Start: released[i], End: end,
						Attrs: map[string]any{"route": c.route, "status": status}})
				}
				if !ok[i] || keep {
					mu.Lock()
					if !ok[i] {
						st.failed++
						t.fail("%s: status %d, %v", c.path, status, err)
					} else {
						st.samples = append(st.samples, sample{c.path, body})
					}
					mu.Unlock()
				}
				inflight.Done()
			}
		}()
	}

	sentIdx := make([]int, 0, len(calls))
	cur := part{from: time.Now()}
	for i := range calls {
		if ctx.Err() != nil {
			break
		}
		if p != nil && i-cur.first == p.every {
			inflight.Wait()
			cur.to, cur.end = time.Now(), i
			st.parts = append(st.parts, cur)
			p.pause()
			cur = part{from: time.Now(), first: i}
			start = cur.from.Add(-time.Duration(i) * interval) // slot i is now
		}
		slot := start.Add(time.Duration(i) * interval)
		if d := time.Until(slot); d > 0 {
			time.Sleep(d)
		}
		now := time.Now()
		st.late = append(st.late, now.Sub(slot).Seconds())
		released[i] = now
		inflight.Add(1)
		select {
		case queue <- i:
			sentIdx = append(sentIdx, i)
		default:
			inflight.Done()
			st.dropped++
			t.fail("%s: dropped, dispatch queue full", calls[i].path)
		}
		if n := len(queue); n > st.queueMax {
			st.queueMax = n
		}
	}
	close(queue)
	wg.Wait()
	cur.to, cur.end = time.Now(), len(st.late)
	st.parts = append(st.parts, cur)

	t.add(int64(len(st.late)))
	st.sent = len(sentIdx)
	for _, i := range sentIdx {
		if ok[i] {
			st.reqLat = append(st.reqLat, lat[i])
			st.reqIdx = append(st.reqIdx, i)
		}
	}
	st.lat = append([]float64(nil), st.reqLat...)
	sort.Float64s(st.lat)
	return st
}

// closedLoop is one caller that waits for each reply: it issues calls one
// after another, pausing think between a response and the next request,
// until the calls run out or ctx ends. Latency runs from sending a request
// to the end of its response body; there is no schedule to fall behind.
func closedLoop(ctx context.Context, calls []call, think time.Duration, do doFunc, spans *spanLog, t *tally) *loopStats {
	st := &loopStats{}
	from := time.Now()
	for i := range calls {
		if ctx.Err() != nil {
			break
		}
		c := &calls[i]
		var parent uint64
		if spans != nil {
			parent = spans.newID()
		}
		sent := time.Now()
		status, _, err := do(i, c, parent, false)
		end := time.Now()
		if spans != nil {
			spans.add(span{ID: parent, Req: int64(i) + 1, Name: "loadgen.request", Start: sent, End: end,
				Attrs: map[string]any{"route": c.route, "status": status}})
		}
		t.add(1)
		st.sent++
		if err != nil || status != http.StatusOK {
			st.failed++
			t.fail("%s: status %d, %v", c.path, status, err)
		} else {
			st.reqLat = append(st.reqLat, end.Sub(sent).Seconds())
			st.reqIdx = append(st.reqIdx, i)
		}
		if sleepCtx(ctx, think) != nil {
			break
		}
	}
	st.parts = []part{{from: from, to: time.Now(), end: st.sent}}
	st.lat = append([]float64(nil), st.reqLat...)
	sort.Float64s(st.lat)
	return st
}

// partLatencies returns part k's latencies, sorted.
func (st *loopStats) partLatencies(k int) []float64 {
	p := st.parts[k]
	var lat []float64
	for j, i := range st.reqIdx {
		if i >= p.first && i < p.end {
			lat = append(lat, st.reqLat[j])
		}
	}
	sort.Float64s(lat)
	return lat
}

// latencyMS returns the q-quantile of the phase's latencies in
// milliseconds.
func (st *loopStats) latencyMS(q float64) float64 { return 1000 * quantile(st.lat, q) }

// httpDo issues calls over client against base.
func httpDo(client *http.Client, base string) doFunc {
	return func(_ int, c *call, _ uint64, keep bool) (int, []byte, error) {
		return httpGet(client, base+c.path, keep)
	}
}

func httpGet(client *http.Client, u string, keep bool) (int, []byte, error) {
	resp, err := client.Get(u)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if keep {
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, body, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil, err
}

// loadClient is the generator's HTTP client: at most conns connections.
func loadClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

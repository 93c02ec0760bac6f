package main

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// sleepyServer answers every request after d.
func sleepyServer(t *testing.T, d time.Duration) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(d)
		w.Write([]byte("ok"))
	}))
	t.Cleanup(srv.Close)
	return srv
}

func testCalls(n int) []call {
	calls := make([]call, n)
	for i := range calls {
		calls[i] = call{route: "field", path: "/v1/field"}
	}
	return calls
}

// Arrivals every 5 ms against one connection whose server takes 10 ms:
// request k waits about 5k ms in the queue, and that wait is charged.
func TestOpenLoopChargesQueueWait(t *testing.T) {
	srv := sleepyServer(t, 10*time.Millisecond)
	const n = 20
	st := openLoop(context.Background(), time.Now(), testCalls(n), 200, 1, httpDo(loadClient(1), srv.URL), 0, nil, &tally{}, nil)
	if st.sent != n || st.failed != 0 || st.dropped != 0 {
		t.Fatalf("sent %d, failed %d, dropped %d; want %d, 0, 0", st.sent, st.failed, st.dropped, n)
	}
	if slowest := st.lat[n-1]; slowest < 0.06 {
		t.Errorf("slowest request took %.1f ms from its release; want the last one's queue wait (about 100 ms) charged", 1000*slowest)
	}
	if st.queueMax < 5 {
		t.Errorf("queue max %d; want the backlog recorded", st.queueMax)
	}
}

// A generator that releases 200 ms late (a start in the past) must not
// bill that lateness to the server: latency runs from the release.
func TestOpenLoopDoesNotChargeLateness(t *testing.T) {
	srv := sleepyServer(t, 2*time.Millisecond)
	const n = 10
	start := time.Now().Add(-200 * time.Millisecond)
	st := openLoop(context.Background(), start, testCalls(n), 100, 4, httpDo(loadClient(4), srv.URL), 0, nil, &tally{}, nil)
	if st.sent != n || st.failed != 0 {
		t.Fatalf("sent %d, failed %d; want %d, 0", st.sent, st.failed, n)
	}
	late := append([]float64(nil), st.late...)
	sort.Float64s(late)
	if late[0] < 0.1 {
		t.Errorf("earliest release was %.1f ms late; want every release over 100 ms late", 1000*late[0])
	}
	for i, l := range st.lat {
		if l > 0.05 {
			t.Errorf("request %d took %.1f ms; the generator's lateness was charged to the server", i, 1000*l)
		}
	}
}

// Arrivals that find the dispatch queue full are dropped and failed.
func TestOpenLoopDropsWhenQueueFull(t *testing.T) {
	srv := sleepyServer(t, 10*time.Millisecond)
	// 64 queue slots (the minimum) and one busy connection: a burst of 100
	// overdue arrivals cannot all be queued.
	start := time.Now().Add(-3 * time.Second)
	tl := &tally{}
	st := openLoop(context.Background(), start, testCalls(100), 50, 1, httpDo(loadClient(1), srv.URL), 0, nil, tl, nil)
	if st.dropped == 0 || st.dropped+st.sent != 100 {
		t.Fatalf("dropped %d, sent %d; want some of 100 dropped", st.dropped, st.sent)
	}
	if tl.failed != int64(st.dropped) || tl.attempted != 100 {
		t.Errorf("tally %d failed of %d; want %d of 100", tl.failed, tl.attempted, st.dropped)
	}
}

// A phase cut into parts pauses only once every released request has
// completed, and records which requests each part holds.
func TestOpenLoopParts(t *testing.T) {
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(5 * time.Millisecond)
		w.Write([]byte("ok"))
		served.Add(1)
	}))
	t.Cleanup(srv.Close)
	pausedAt := []int64{}
	p := &pauses{every: 5, pause: func() { pausedAt = append(pausedAt, served.Load()) }}
	st := openLoop(context.Background(), time.Now(), testCalls(18), 400, 1, httpDo(loadClient(1), srv.URL), 0, nil, &tally{}, p)
	if st.sent != 18 || st.failed != 0 {
		t.Fatalf("sent %d, failed %d; want 18, 0", st.sent, st.failed)
	}
	if want := []int64{5, 10, 15}; len(pausedAt) != len(want) || pausedAt[0] != 5 || pausedAt[1] != 10 || pausedAt[2] != 15 {
		t.Errorf("paused with %v requests served; want %v (every released request done)", pausedAt, want)
	}
	wantParts := [][2]int{{0, 5}, {5, 10}, {10, 15}, {15, 18}}
	if len(st.parts) != len(wantParts) {
		t.Fatalf("%d parts, want %d", len(st.parts), len(wantParts))
	}
	for i, pt := range st.parts {
		if pt.first != wantParts[i][0] || pt.end != wantParts[i][1] || pt.to.Before(pt.from) {
			t.Errorf("part %d = [%d, %d) from %v to %v; want %v", i, pt.first, pt.end, pt.from, pt.to, wantParts[i])
		}
	}
}

// A time is scaled by the kernel bursts just before and after it.
func TestSpeedScale(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	sp := &speed{bursts: []burst{{at(0), refKernel}, {at(10), 2 * refKernel}, {at(20), 4 * refKernel}}}
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	if got := sp.scale(at(1), at(9)); !near(got, 1/1.5) {
		t.Errorf("scale between bursts 1 and 2: %v, want %v", got, 1/1.5)
	}
	if got := sp.scale(at(21), at(25)); !near(got, 0.25) {
		t.Errorf("scale after the last burst: %v, want its own 0.25", got)
	}
}

// Each part's quantile is taken relative to the twin phases on either side
// of it, and the phase reports the median over its parts.
func TestTwinLatency(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tw := &twin{load: twinLoad{ref: map[float64]float64{0.5: 1e-3, 0.9: 2e-3}}, phases: []twinPhase{
		{at(0), at(10), []float64{1, 1, 1}},
		{at(20), at(30), []float64{1, 1, 1}},
		{at(40), at(50), []float64{2, 2, 2}},
		{at(60), at(70), []float64{2, 2, 2}},
	}}
	// Part 1's twins pool to {1,1,1,2,2,2}: p50 1, p90 2. So the parts run
	// at p50 ratios 3, 4 and 2, and at p90 ratios 3, 2 and 2.
	st := &loopStats{reqLat: []float64{3, 3, 4, 4, 4, 4}, reqIdx: []int{0, 1, 2, 3, 4, 5},
		parts: []part{{at(10), at(20), 0, 2}, {at(30), at(40), 2, 4}, {at(50), at(60), 4, 6}}}
	if got := tw.latencyMS(st, 0.5); math.Abs(got-3) > 1e-9 {
		t.Errorf("p50 %v ms, want 3 (the median ratio 3 × the twin's reference 1 ms)", got)
	}
	if got := tw.latencyMS(st, 0.9); math.Abs(got-4) > 1e-9 {
		t.Errorf("p90 %v ms, want 4 (the median ratio 2 × the twin's reference 2 ms)", got)
	}
}

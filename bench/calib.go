package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// A shared host slows down and speeds up by a third or more from one
// minute to the next, as its other tenants' load comes and goes, and every
// timing moves with it. The benchmark therefore measures the machine next
// to the system under test, with work that uses only the standard library
// (so its cost does not change with the code under test), and reports
// timings as they would have been on the reference machine: the 2-vCPU
// development machine the benchmark was written on.
//
// Two kinds of timing need two yardsticks. Work that keeps a core busy
// (a boot, a catch-up) slows down with the core: it is scaled by a compute
// kernel (speed). A request's latency is mostly waiting (wake-ups of idle
// virtual CPUs, loopback hand-offs), which a busy host stretches far more
// than it slows a core: it is scaled by the latency of a twin server under
// the same load (twin).

// refKernel is the compute kernel's time on the reference machine.
const refKernel = 0.5e-3 // seconds

// kernel is a fixed amount of compute: hashing, and random updates of a
// table larger than the caches. A kernel is used by one goroutine at a
// time.
type kernel struct {
	table []uint64
	buf   []byte
	sum   [32]byte // keeps the hashing from being optimized away
}

func newKernel() *kernel { return &kernel{table: make([]uint64, 1<<21), buf: make([]byte, 64<<10)} } // 16 MiB

func (k *kernel) run(seed uint64) {
	for j := 0; j < 4; j++ {
		k.sum = sha256.Sum256(k.buf)
	}
	x := seed + 1
	for j := 0; j < 20000; j++ {
		x = x*6364136223846793005 + 1442695040888963407
		k.table[x>>43] += x
	}
}

// speed times the kernel in short bursts at quiet moments of a run, when
// the system under test is stopped or idle. A time t measured between two
// bursts is reported as t·refKernel/k, with k the kernel's time in them.
type speed struct {
	k      *kernel
	bursts []burst
}

// burst is the median kernel time of burstRuns runs at one moment.
type burst struct {
	at     time.Time
	kernel float64 // seconds
}

const burstRuns = 20

func newSpeed() *speed {
	s := &speed{k: newKernel()}
	s.burst() // first use: page faults
	s.bursts = nil
	return s
}

func (s *speed) burst() {
	times := make([]float64, burstRuns)
	for i := range times {
		t0 := time.Now()
		s.k.run(uint64(i))
		times[i] = time.Since(t0).Seconds()
	}
	s.bursts = append(s.bursts, burst{at: time.Now(), kernel: median(times)})
}

// scale returns the factor that converts a time measured between from and
// to into reference-machine time: refKernel over the mean kernel time of
// the last burst before from and the first burst after to (either alone
// when the other does not exist).
func (s *speed) scale(from, to time.Time) float64 {
	var k []float64
	i := sort.Search(len(s.bursts), func(i int) bool { return !s.bursts[i].at.Before(from) })
	if i > 0 {
		k = append(k, s.bursts[i-1].kernel)
	}
	j := sort.Search(len(s.bursts), func(i int) bool { return !s.bursts[i].at.Before(to) })
	if j < len(s.bursts) {
		k = append(k, s.bursts[j].kernel)
	}
	if len(k) == 0 {
		return 1
	}
	return refKernel / (sum(k) / float64(len(k)))
}

func (s *speed) report() {
	var k []float64
	for _, b := range s.bursts {
		k = append(k, 1000*b.kernel)
	}
	fmt.Fprintf(os.Stderr, "bench: kernel bursts: ms %.3f (median %.3f; reference %.3f)\n", k, median(k), 1000*refKernel)
}

// twinLoad is the twin of a workload's open loop: the same rate and
// connections against the twin server, whose every answer costs units
// kernel runs, for long per twin phase. ref maps each reported latency
// quantile to the twin's latency at it on the reference machine, in
// seconds.
type twinLoad struct {
	rate  float64
	units int
	long  time.Duration
	ref   map[float64]float64
}

// twin is the reference server latencies are measured against: the
// standard library's HTTP server in the benchmark process. Twin phases run
// before, between and after the parts of a measured phase, with the system
// under test idle; a part's latency quantile q is reported as
// q·ref/q_twin, with q_twin over the twin phases on either side of the
// part.
type twin struct {
	load   twinLoad
	srv    *http.Server
	url    string
	client *http.Client
	pool   sync.Pool // *kernel, one per concurrent request
	phases []twinPhase
}

type twinPhase struct {
	from, to time.Time
	lat      []float64 // seconds, ascending
}

func newTwin(load twinLoad) (*twin, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t := &twin{load: load, url: "http://" + l.Addr().String(), client: loadClient(conns)}
	t.pool.New = func() any { return newKernel() }
	body := make([]byte, 2048)
	t.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if units, _ := strconv.Atoi(r.URL.Query().Get("units")); units > 0 {
			k := t.pool.Get().(*kernel)
			for i := 0; i < units; i++ {
				k.run(uint64(i))
			}
			t.pool.Put(k)
		}
		w.Write(body)
	})}
	go t.srv.Serve(l) // returns when close shuts the server down
	return t, nil
}

func (t *twin) close() {
	t.srv.Close()
	t.client.CloseIdleConnections()
}

// run is one twin phase.
func (t *twin) run(ctx context.Context) {
	calls := make([]call, int(t.load.rate*t.load.long.Seconds()))
	for i := range calls {
		calls[i] = call{route: "twin", path: fmt.Sprintf("/?units=%d", t.load.units)}
	}
	from := time.Now()
	st := openLoop(ctx, from, calls, t.load.rate, conns, httpDo(t.client, t.url), 0, nil, &tally{}, nil)
	t.phases = append(t.phases, twinPhase{from: from, to: time.Now(), lat: st.lat})
}

// around returns the latencies of the last twin phase that ended by from
// and of the first that started at to or later, sorted.
func (t *twin) around(from, to time.Time) []float64 {
	var before, after *twinPhase
	for i := range t.phases {
		p := &t.phases[i]
		if !p.to.After(from) {
			before = p
		}
		if after == nil && !p.from.Before(to) {
			after = p
		}
	}
	var lat []float64
	for _, p := range []*twinPhase{before, after} {
		if p != nil {
			lat = append(lat, p.lat...)
		}
	}
	sort.Float64s(lat)
	return lat
}

// latencyMS returns the phase's q-quantile latency (q is a key of the
// twin's ref) in reference-machine milliseconds: the median over the
// phase's parts of each part's quantile relative to the twin's around it.
func (t *twin) latencyMS(st *loopStats, q float64) float64 {
	var rel []float64
	for k, p := range st.parts {
		lat := st.partLatencies(k)
		tw := t.around(p.from, p.to)
		if len(lat) == 0 || len(tw) == 0 {
			continue
		}
		rel = append(rel, quantile(lat, q)/quantile(tw, q))
	}
	return 1000 * t.load.ref[q] * median(rel)
}

func (t *twin) report() {
	var p50, p75 []float64
	for _, p := range t.phases {
		p50 = append(p50, 1000*quantile(p.lat, 0.5))
		p75 = append(p75, 1000*quantile(p.lat, 0.75))
	}
	fmt.Fprintf(os.Stderr, "bench: twin phases: p50 ms %.3f (reference %.3f), p75 ms %.3f (reference %.3f)\n",
		p50, 1000*t.load.ref[0.5], p75, 1000*t.load.ref[0.75])
}

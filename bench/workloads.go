package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/core"
	"github.com/wikistale/wikistale/internal/ingest"
	"github.com/wikistale/wikistale/internal/obs"
	"github.com/wikistale/wikistale/internal/staleserve"
	"github.com/wikistale/wikistale/internal/timeline"
)

// workloads maps each workload name to its driver. README.md records why
// each one exists.
var workloads = map[string]func(context.Context, *runner) error{
	// Restart after downtime, then reads that all hit the alert cache:
	// net/http, the compiled field index and pre-rendered bodies.
	"serve_hot": func(ctx context.Context, r *runner) error { return serve(ctx, r, hotMix, hotTwin) },
	// Restart, then questions about past days: nearly every lookup runs
	// core.DetectStale.
	"serve_audit": func(ctx context.Context, r *runner) error { return serve(ctx, r, auditMix, auditTwin) },
	// Cold start from an empty store over the whole feed: JSONL decode,
	// staging, and retrains on a growing corpus.
	"backfill": backfill,
	// Reads beside a live feed: retrains, swaps and snapshots compete with
	// serving.
	"live_mixed": live,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

const (
	conns = 2 // the generator's HTTP connections (the machine has 2 cores)
	// boots is how many starts a run times for set-up: half before its
	// measured part and half after, so they see the machine at two moments.
	boots = 10

	hotRPS         = 500 // serve_hot and live_mixed
	auditRPS       = 100
	liveEventsPerS = 2000
	dashboardThink = 10 * time.Millisecond // backfill dashboard: pause between a response and the next request
	probeEvery     = 200 * time.Millisecond
	appendEvery    = 100 * time.Millisecond
	sampleTarget   = 300 // response bodies kept per run for the output checks
	serveParts     = 5   // parts of a serve phase, each judged against the twin around it
	catchupTimeout = 120 * time.Second
	probeTimeout   = 30 * time.Second
	lateLimit      = 2 * time.Millisecond // a phase whose release lateness p99 exceeds this is invalid
)

// The twins of the open loops (see twin). A cache hit costs the server
// about a tenth of a millisecond, so the hot twin answers at once; an audit
// request runs the detector for about 3 ms, so the audit twin computes for
// about as long.
var (
	hotTwin   = twinLoad{rate: hotRPS, units: 0, long: 500 * time.Millisecond, ref: map[float64]float64{0.5: 0.17e-3, 0.75: 0.2e-3}}
	auditTwin = twinLoad{rate: auditRPS, units: 6, long: 500 * time.Millisecond, ref: map[float64]float64{0.5: 3.1e-3, 0.75: 3.4e-3}}
)

// newTwin starts the twin of the run's measured open loop.
func (r *runner) newTwin(load twinLoad) error {
	if r.cfg.small {
		load.long /= 5
	}
	var err error
	r.twin, err = newTwin(load)
	return err
}

// warmup is the discarded phase before a measured one.
func (r *runner) warmup() time.Duration {
	if r.cfg.small {
		return 300 * time.Millisecond
	}
	return 2 * time.Second
}

// phase is the measured phase length.
func (r *runner) phase() time.Duration { return time.Duration(r.cfg.seconds) * time.Second }

// boot is one start of the system under test: when it was spawned and
// when each epoch up to the one waited for began to serve.
type boot struct {
	spawn  time.Time
	served []time.Time
}

// launch is how the system under test starts: the feed it reads, the
// epoch store it boots from ("" for an empty store), and whether it tails
// the feed.
type launch struct {
	feed, store string
	follow      bool
}

// start boots the system under test as l says, over a fresh copy of the
// epoch store, and waits until it serves epoch upTo.
func (r *runner) start(ctx context.Context, name string, l launch, upTo uint64) (system, boot, error) {
	store := filepath.Join(r.cfg.work, "store-"+name)
	if l.store != "" {
		if err := copyDir(l.store, store); err != nil {
			return nil, boot{}, err
		}
	}
	var sys system
	if r.cfg.trace {
		logPath := filepath.Join(r.cfg.work, "inproc-"+name+".log")
		r.logs = append(r.logs, logPath)
		logf, err := os.Create(logPath)
		if err != nil {
			return nil, boot{}, err
		}
		if sys, err = bootInproc(ctx, l.feed, store, l.follow, r.spans, logf); err != nil {
			return nil, boot{}, err
		}
	} else {
		args := []string{"-live", "-source", l.feed, "-store", store}
		if l.follow {
			args = append(args, "-follow")
		}
		logPath := filepath.Join(r.cfg.work, "staleserve-"+name+".log")
		r.logs = append(r.logs, logPath)
		p, err := startProc(r.cfg.server, logPath, conns, args...)
		if err != nil {
			return nil, boot{}, err
		}
		sys = p
	}
	b := boot{spawn: time.Now().Add(-sys.since())}
	for ep := uint64(1); ep <= upTo; ep++ {
		age, err := waitEpoch(ctx, sys, ep, catchupTimeout)
		if err != nil {
			sys.kill()
			return nil, boot{}, err
		}
		b.served = append(b.served, b.spawn.Add(age))
	}
	return sys, b, nil
}

// setupStarts starts and stops the system count times for the set-up
// metrics, with a calibration burst around each start.
func (r *runner) setupStarts(ctx context.Context, name string, count int, l launch, upTo uint64) ([]boot, error) {
	var out []boot
	for i := 0; i < count; i++ {
		r.speed.burst()
		sys, b, err := r.start(ctx, fmt.Sprintf("%s-%d", name, i), l, upTo)
		if err != nil {
			return nil, err
		}
		sys.kill()
		out = append(out, b)
	}
	if count > 0 {
		r.speed.burst()
	}
	return out, nil
}

// setupHalf is how many set-up starts a run makes before its measured part
// and after it; a traced run makes none beyond the one it measures, and
// the harness test one on each side.
func (r *runner) setupHalf() int {
	switch {
	case r.cfg.trace:
		return 0
	case r.cfg.small:
		return 1
	}
	return boots / 2
}

// medianAge is the median over starts of how long epoch i+1 took to
// serve, in reference-machine seconds.
func (r *runner) medianAge(boots []boot, i int) float64 {
	var v []float64
	for _, b := range boots {
		v = append(v, b.served[i].Sub(b.spawn).Seconds()*r.speed.scale(b.spawn, b.served[i]))
	}
	fmt.Fprintf(os.Stderr, "bench: starts: spawn to epoch %d, scaled s %.3f\n", i+1, v)
	return median(v)
}

// rng returns the request stream generator for one phase of the run.
func (r *runner) rng(phase int64) *rand.Rand {
	return rand.New(rand.NewSource(r.cfg.seed*1000 + phase))
}

// serve is serve_hot and serve_audit: restart from a store a week behind
// the feed, catch up, then serve m at the twin's rate.
func serve(ctx context.Context, r *runner, m mix, tw twinLoad) error {
	in := r.in
	rate := tw.rate
	if err := r.newTwin(tw); err != nil {
		return err
	}
	half := r.setupHalf()
	restart := launch{feed: in.feed, store: in.storeLag}
	boots, err := r.setupStarts(ctx, "before", max(0, half-1), restart, 2)
	if err != nil {
		return err
	}
	sys, b, err := r.start(ctx, "serve", restart, 2)
	if err != nil {
		return err
	}
	boots = append(boots, b)

	// The caught-up epoch must equal the batch-trained reference: same
	// statistics, same bodies (epoch numbers included).
	ref := referenceServer(in.lagDet, in.ref)
	r.checkSame(sys, ref, "/v1/stats", false)

	warm := m.calls(r.rng(2), int(rate*r.warmup().Seconds()), in.catalog, in.span)
	openLoop(ctx, time.Now(), warm, rate, conns, sys.do(), 0, nil, r.tally, nil)

	// The phase runs in parts with a twin phase before, between and after
	// them, so each part is judged against the machine right around it.
	calls := m.calls(r.rng(1), int(rate*r.phase().Seconds()), in.catalog, in.span)
	twinPhase := func() { r.twin.run(ctx) }
	twinPhase()
	mark := r.markPhase()
	parts := &pauses{every: max(1, len(calls)/serveParts), pause: twinPhase}
	st := openLoop(ctx, time.Now(), calls, rate, conns, sys.do(), max(1, len(calls)/sampleTarget), r.spans, r.tally, parts)
	r.endPhase(mark, st)
	twinPhase()

	for _, s := range st.samples {
		status, body := serveLocal(ref, s.path)
		r.tally.check(status == http.StatusOK && bytes.Equal(body, s.body), "%s: served body differs from the reference", s.path)
	}
	ep, err := readyEpoch(sys)
	r.tally.check(err == nil && ep == 2, "serving epoch moved to %d during the run (%v)", ep, err)
	r.set("p50_ms", "ms", r.twin.latencyMS(st, 0.5))
	r.set("p75_ms", "ms", r.twin.latencyMS(st, 0.75))
	if err := sys.finish(ctx, r); err != nil {
		return err
	}

	after, err := r.setupStarts(ctx, "after", half, restart, 2)
	if err != nil {
		return err
	}
	boots = append(boots, after...)
	r.set("setup_s", "s", r.medianAge(boots, 0))
	r.set("fresh_s", "s", r.medianAge(boots, 1))
	return nil
}

// backfill starts from an empty store and catches up the whole feed while
// an editor dashboard reads the stale lists and the fields every epoch
// serves. It repeats the catch-up until the measured phase is over.
func backfill(ctx context.Context, r *runner) error {
	in := r.in
	half := r.setupHalf()
	cold := launch{feed: in.feed}
	boots, err := r.setupStarts(ctx, "before", half, cold, 1)
	if err != nil {
		return err
	}
	ref := referenceServer(in.ref)
	_, refStats := serveLocal(ref, "/v1/stats")
	refStats = withoutEpoch(refStats)
	var reps []*loopStats
	var caught []boot // spawn → caught up, per catch-up
	started := time.Now()
	for rep := 0; ; rep++ {
		r.speed.burst()
		sys, b, err := r.start(ctx, fmt.Sprintf("backfill-%d", rep), cold, 1)
		if err != nil {
			return err
		}
		boots = append(boots, b)
		done, st, err := r.catchUp(ctx, sys, rep, refStats)
		if err != nil {
			sys.kill()
			return err
		}
		reps = append(reps, st)
		caught = append(caught, boot{spawn: b.spawn, served: []time.Time{done}})
		// Stream ≡ batch: the caught-up stale list equals the reference's.
		r.checkSame(sys, ref, "/v1/stale?window=7", true)

		if r.cfg.trace || time.Since(started) >= r.phase() {
			if err := sys.finish(ctx, r); err != nil {
				return err
			}
			break
		}
		sys.kill()
	}
	after, err := r.setupStarts(ctx, "after", half, cold, 1)
	if err != nil {
		return err
	}
	boots = append(boots, after...)
	// The dashboard's requests wait for a core the catch-up keeps busy:
	// their latency is set by the scheduler's time slices more than by the
	// machine's speed, so it is not scaled.
	var p50s, p75s []float64
	for _, st := range reps {
		p50s, p75s = append(p50s, st.latencyMS(0.5)), append(p75s, st.latencyMS(0.75))
	}
	r.set("setup_s", "s", r.medianAge(boots, 0))
	r.set("fresh_s", "s", r.medianAge(caught, 0))
	r.set("p50_ms", "ms", median(p50s))
	r.set("p75_ms", "ms", median(p75s))
	return nil
}

// catchUp runs the backfill dashboard from the system's first epoch until
// its statistics equal the reference's, and returns that moment. The
// dashboard is one editor's page polling the server: a closed loop. The
// catch-up keeps both cores busy, so an open loop's release schedule could
// not be kept (its releases ran 3 to 5 ms late at the 99th percentile).
func (r *runner) catchUp(ctx context.Context, sys system, rep int, refStats []byte) (time.Time, *loopStats, error) {
	calls := hotMix.calls(r.rng(int64(10+rep)), int(catchupTimeout/dashboardThink), r.in.early, r.in.span)
	lctx, stopLoad := context.WithCancel(ctx)
	loadDone := make(chan *loopStats, 1)
	mark := r.markPhase()
	go func() {
		loadDone <- closedLoop(lctx, calls, dashboardThink, sys.do(), r.spans, r.tally)
	}()
	_, err := waitFor(ctx, sys, 50*time.Millisecond, catchupTimeout, "catch-up", func() (bool, error) {
		status, body, err := sys.get("/v1/stats")
		return status == http.StatusOK && bytes.Equal(withoutEpoch(body), refStats), err
	})
	done := time.Now()
	stopLoad()
	st := <-loadDone
	r.endPhase(mark, st)
	return done, st, err
}

// live serves the hot mix while the feed grows by liveEventsPerS update
// events per second, with a probe every probeEvery whose arrival in the
// served model is timed.
func live(ctx context.Context, r *runner) error {
	in := r.in
	if err := r.newTwin(hotTwin); err != nil {
		return err
	}
	half := r.setupHalf()
	following := launch{feed: in.feed, store: in.storeFull, follow: true}
	boots, err := r.setupStarts(ctx, "before", max(0, half-1), following, 1)
	if err != nil {
		return err
	}
	sys, b, err := r.start(ctx, "serve", following, 1)
	if err != nil {
		return err
	}
	boots = append(boots, b)
	// The feed goroutine rebuilds its staging buffer before it tails the
	// file; appends start once the manager is up.
	if _, err := waitFor(ctx, sys, 20*time.Millisecond, catchupTimeout, "ingest manager", func() (bool, error) {
		_, body, err := sys.get("/v1/ingest/stats")
		var st ingest.Stats
		if err == nil {
			err = json.Unmarshal(body, &st)
		}
		return err == nil && st.Staging.Changes > 0, err
	}); err != nil {
		sys.kill()
		return err
	}

	// The feed triggers a retrain every RetrainChanges events: a cycle of
	// 2.5 s at liveEventsPerS. It starts half a cycle before the measured
	// phase, and the load pauses for a twin phase once a cycle, half-way
	// between two retrains. So every run's phase holds the same retrains
	// (four in ten seconds), none at its edges and none during a twin phase.
	cycle := time.Duration(float64(liveConfig(core.DefaultConfig()).RetrainChanges) / liveEventsPerS * float64(time.Second))
	lead := min(cycle/2, r.warmup())

	targets, probes := liveFields(in, int((lead+r.phase())/probeEvery)+1)
	feed, err := os.OpenFile(in.feed, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		sys.kill()
		return err
	}
	defer feed.Close()
	fw := &feedWriter{f: feed, day: in.span.End - 1, targets: targets, zipf: rand.NewZipf(r.rng(3), 1.1, 1, uint64(len(targets)-1))}
	pw := &probeWatch{sys: sys, fields: probes, wrote: make([]time.Time, len(probes)), seen: make([]time.Time, len(probes))}

	warm := hotMix.calls(r.rng(2), int(hotTwin.rate*r.warmup().Seconds()), in.catalog, in.span)
	split := int(hotTwin.rate * (r.warmup() - lead).Seconds())
	openLoop(ctx, time.Now(), warm[:split], hotTwin.rate, conns, sys.do(), 0, nil, r.tally, nil)

	phaseEnd := time.Now().Add(lead + r.phase())
	var appendErr, watchErr error
	wctx, stopFeed := context.WithCancel(ctx)
	appendDone, watchDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(appendDone)
		appendErr = fw.run(wctx, phaseEnd, pw)
	}()
	go func() {
		defer close(watchDone)
		watchErr = pw.run(wctx)
	}()
	openLoop(ctx, time.Now(), warm[split:], hotTwin.rate, conns, sys.do(), 0, nil, r.tally, nil)

	calls := hotMix.calls(r.rng(1), int(hotTwin.rate*r.phase().Seconds()), in.catalog, in.span)
	twinPhase := func() { r.twin.run(ctx) }
	twinPhase()
	mark := r.markPhase()
	parts := &pauses{every: int(hotTwin.rate * cycle.Seconds()), pause: twinPhase}
	st := openLoop(ctx, time.Now(), calls, hotTwin.rate, conns, sys.do(), 0, r.spans, r.tally, parts)
	r.endPhase(mark, st)
	twinPhase()

	// Appends continue (without probes) until every probe was seen, so the
	// last probes do not wait for the 15 s interval retrain.
	select {
	case <-watchDone:
	case <-time.After(time.Until(phaseEnd) + probeTimeout):
	case <-ctx.Done():
	}
	stopFeed()
	<-appendDone
	<-watchDone
	if err := errors.Join(appendErr, watchErr); err != nil {
		sys.kill()
		return err
	}
	// Freshness is paced by the feed (a retrain every RetrainChanges
	// events), not by the machine's speed, so it is not scaled.
	r.set("fresh_s", "s", median(pw.results(r.tally)))
	if err := sys.finish(ctx, r); err != nil {
		return err
	}

	after, err := r.setupStarts(ctx, "after", half, following, 1)
	if err != nil {
		return err
	}
	boots = append(boots, after...)
	r.set("p50_ms", "ms", r.twin.latencyMS(st, 0.5))
	r.set("p75_ms", "ms", r.twin.latencyMS(st, 0.75))
	r.set("setup_s", "s", r.medianAge(boots, 0))
	return nil
}

// liveFields picks the fields live_mixed writes to: targets for the
// update stream and nProbes probe fields, disjoint. Both come from the
// catalog, restricted to (page, property) pairs that name a single infobox
// field, so /v1/explain answers about the field written; probes
// additionally have no change on the span's final day, the day every live
// event is stamped with.
func liveFields(in *inputs, nProbes int) (targets, probes []ingest.Event) {
	ids := map[fieldName][]ingest.Event{}
	last := map[ingest.Event]ingest.Event{} // identity → its last event
	for _, ev := range in.events {
		id := ingest.Event{Page: ev.Page, Template: ev.Template, Infobox: ev.Infobox, Property: ev.Property}
		if _, seen := last[id]; !seen {
			ids[fieldName{ev.Page, ev.Property}] = append(ids[fieldName{ev.Page, ev.Property}], id)
		}
		last[id] = ev
	}
	final := in.span.End - 1
	for _, f := range in.catalog {
		idl := ids[f]
		if len(idl) != 1 {
			continue
		}
		id := idl[0]
		ev := last[id]
		if len(probes) < nProbes && ev.Kind == changecube.Update && timeline.DayOfUnix(ev.Time) < final {
			probes = append(probes, id)
		} else {
			targets = append(targets, id)
		}
	}
	return targets, probes
}

// feedWriter appends live update events to the feed file the server tails.
type feedWriter struct {
	f       *os.File
	day     timeline.Day
	targets []ingest.Event
	zipf    *rand.Zipf
	seq     int
}

// run appends a chunk every appendEvery; until phaseEnd every other chunk
// carries the next probe. It returns when ctx ends.
func (w *feedWriter) run(ctx context.Context, phaseEnd time.Time, pw *probeWatch) error {
	perChunk := int(liveEventsPerS * appendEvery.Seconds())
	tick := time.NewTicker(appendEvery)
	defer tick.Stop()
	var buf bytes.Buffer
	for chunk := 0; ; chunk++ {
		events := make([]ingest.Event, 0, perChunk+1)
		for i := 0; i < perChunk; i++ {
			ev := w.targets[w.zipf.Uint64()]
			events = append(events, w.event(ev, fmt.Sprintf("live-%d", w.seq)))
		}
		probe := -1
		if chunk%int(probeEvery/appendEvery) == 0 {
			if time.Now().Before(phaseEnd) {
				probe = pw.next()
			} else {
				pw.finish()
			}
		}
		if probe >= 0 {
			events = append(events, w.event(pw.fields[probe], fmt.Sprintf("probe-%d", probe)))
		}
		buf.Reset()
		if err := ingest.WriteEvents(&buf, events); err != nil {
			return err
		}
		if _, err := w.f.Write(buf.Bytes()); err != nil {
			return err
		}
		if probe >= 0 {
			pw.written(probe, time.Now())
		}
		select {
		case <-ctx.Done():
			return nil
		case <-tick.C:
		}
	}
}

// event stamps an update of field inside the final day.
func (w *feedWriter) event(field ingest.Event, value string) ingest.Event {
	w.seq++
	ev := field
	ev.Time = w.day.Unix() + 12*3600 + int64(w.seq%43200)
	ev.Value = value
	ev.Kind = changecube.Update
	return ev
}

// probeWatch times each probe from its write to the first /v1/explain on
// its field, window 1, that shows changed_in_window. It polls /readyz and
// checks the unseen probes whenever the serving epoch changes.
type probeWatch struct {
	sys    system
	fields []ingest.Event // fixed before the watch starts

	mu       sync.Mutex
	issued   int
	finished bool        // no probe is issued after this
	wrote    []time.Time // zero until the probe's event is in the feed
	seen     []time.Time // zero until the served model shows the probe
}

// next reserves the next probe, -1 when none are left.
func (pw *probeWatch) next() int {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	if pw.finished || pw.issued >= len(pw.fields) {
		return -1
	}
	pw.issued++
	return pw.issued - 1
}

// finish marks that no further probe will be issued.
func (pw *probeWatch) finish() {
	pw.mu.Lock()
	pw.finished = true
	pw.mu.Unlock()
}

func (pw *probeWatch) written(i int, t time.Time) {
	pw.mu.Lock()
	pw.wrote[i] = t
	pw.mu.Unlock()
}

// run returns once issuing has finished and every probe was seen, or when
// ctx ends.
func (pw *probeWatch) run(ctx context.Context) error {
	var lastEpoch uint64
	for {
		if err := sleepCtx(ctx, 20*time.Millisecond); err != nil {
			return nil
		}
		pw.mu.Lock()
		var pending []int
		for i := 0; i < pw.issued; i++ {
			if pw.seen[i].IsZero() {
				pending = append(pending, i)
			}
		}
		done := pw.finished && len(pending) == 0
		pw.mu.Unlock()
		if done {
			return nil
		}
		ep, err := readyEpoch(pw.sys)
		if err != nil {
			return err
		}
		if ep == lastEpoch {
			continue
		}
		lastEpoch = ep
		now := time.Now()
		for _, i := range pending {
			pw.mu.Lock()
			written := !pw.wrote[i].IsZero()
			pw.mu.Unlock()
			if !written {
				continue
			}
			changed, err := pw.changed(pw.fields[i])
			if err != nil {
				return err
			}
			if changed {
				pw.mu.Lock()
				pw.seen[i] = now
				pw.mu.Unlock()
			}
		}
	}
}

func (pw *probeWatch) changed(f ingest.Event) (bool, error) {
	status, body, err := pw.sys.get(fmt.Sprintf("/v1/explain?page=%s&property=%s&window=1",
		url.QueryEscape(f.Page), url.QueryEscape(f.Property)))
	if err != nil {
		return false, err
	}
	if status != http.StatusOK {
		return false, fmt.Errorf("explain for probe %s/%s: status %d", f.Page, f.Property, status)
	}
	var ex struct {
		Changed bool `json:"changed_in_window"`
	}
	err = json.Unmarshal(body, &ex)
	return ex.Changed, err
}

// results returns every written probe's freshness in seconds, failing the
// probes that were never seen.
func (pw *probeWatch) results(t *tally) []float64 {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	var out []float64
	for i := 0; i < pw.issued; i++ {
		if pw.wrote[i].IsZero() {
			continue
		}
		seen := !pw.seen[i].IsZero()
		t.check(seen, "probe on %s/%s never became visible", pw.fields[i].Page, pw.fields[i].Property)
		if seen {
			out = append(out, pw.seen[i].Sub(pw.wrote[i]).Seconds())
		}
	}
	return out
}

// phaseMark is the in-process state at the start of a measured phase.
type phaseMark struct {
	hits, misses uint64
	rt           []metrics.Sample
}

func (r *runner) markPhase() phaseMark {
	if !r.cfg.trace {
		return phaseMark{}
	}
	hits, misses := cacheCounters()
	return phaseMark{hits: hits, misses: misses, rt: readRuntime()}
}

// endPhase reports a measured phase on stderr, marks the run invalid when
// the generator released its requests late, and in a traced run records
// the per-layer metrics the phase bounds: alert-cache outcomes, the Go
// runtime and the generator's own lateness.
func (r *runner) endPhase(m phaseMark, st *loopStats) {
	late := append([]float64(nil), st.late...)
	sort.Float64s(late)
	lateP99 := time.Duration(quantile(late, 0.99) * float64(time.Second))
	fmt.Fprintf(os.Stderr, "bench: phase: %d sent, %d dropped, %d failed; unscaled ms p50 %.3f p75 %.3f p90 %.3f p99 %.3f p999 %.3f max %.3f; lateness p99 %v, queue max %d\n",
		st.sent, st.dropped, st.failed, st.latencyMS(0.5), st.latencyMS(0.75), st.latencyMS(0.9), st.latencyMS(0.99), st.latencyMS(0.999), st.latencyMS(1),
		lateP99, st.queueMax)
	if lateP99 > lateLimit {
		fmt.Fprintf(os.Stderr, "bench: phase invalid: generator release lateness p99 %v exceeds %v\n", lateP99, lateLimit)
		r.invalid = true
	}
	if !r.cfg.trace {
		return
	}
	hits, misses := cacheCounters()
	dh, dm := float64(hits-m.hits), float64(misses-m.misses)
	r.set("staleserve.cache_hit_frac", "ratio", ratio(dh, dh+dm))
	r.set("staleserve.cache_misses", "count", dm)
	r.set("loadgen.late_p99_ms", "ms", lateP99.Seconds()*1000)
	r.set("loadgen.queue_max", "count", float64(st.queueMax))
	for k, v := range runtimeDelta(m.rt, readRuntime()) {
		r.metrics[k] = v
	}
}

// checkSame compares one path's body between the system and a reference
// server; stripEpoch drops the epoch field from both first.
func (r *runner) checkSame(sys system, ref *staleserve.Server, path string, stripEpoch bool) {
	status, got, err := sys.get(path)
	_, want := serveLocal(ref, path)
	if stripEpoch {
		got, want = withoutEpoch(got), withoutEpoch(want)
	}
	r.tally.check(err == nil && status == http.StatusOK && bytes.Equal(got, want),
		"%s differs from the reference (status %d, %v):\n got %.300s\nwant %.300s", path, status, err, got, want)
}

// withoutEpoch re-encodes a JSON object without its "epoch" field.
func withoutEpoch(body []byte) []byte {
	var m map[string]json.RawMessage
	if json.Unmarshal(body, &m) != nil {
		return body
	}
	delete(m, "epoch")
	out, _ := json.Marshal(m) // re-encoding decoded raw messages cannot fail
	return out
}

func cacheCounters() (hits, misses uint64) {
	return obs.Default.Counter("wikistale_alert_cache_hits_total", nil).Value(),
		obs.Default.Counter("wikistale_alert_cache_misses_total", nil).Value()
}

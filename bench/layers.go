package main

import (
	"runtime"
	"runtime/metrics"

	"github.com/wikistale/wikistale/internal/ingest"
)

// trainStages are the model-training stages reported per layer.
var trainStages = []string{"correlation", "assocrules", "seasonal", "familycorr", "threshold"}

// layerMetrics turns a traced run's spans and the manager's counters into
// the per-layer metrics. Names are module names; README.md says which
// end-to-end metric each one should move, on which workload.
func (r *runner) layerMetrics(ip *inproc, stats ingest.Stats) {
	sum := r.spans.summary()
	get := func(name string) layerStats {
		if st, ok := sum[name]; ok {
			return *st
		}
		return layerStats{Name: name}
	}
	for _, route := range []string{"field", "explain", "stale"} {
		st := get("staleserve." + route)
		r.set("staleserve.handler_us."+route+".p50", "us", st.SelfP50US)
		r.set("staleserve.handler_us."+route+".p99", "us", st.SelfP99US)
	}
	det := get("core.detect_stale")
	r.set("core.detect_stale_ms.p50", "ms", det.P50US/1000)
	r.set("core.detect_stale_ms.p99", "ms", det.P99US/1000)
	r.set("core.detect_stale.count", "count", float64(det.Count))
	ex := get("core.explain")
	r.set("core.explain_us.p50", "us", ex.P50US)
	r.set("core.explain_us.p99", "us", ex.P99US)

	next, consume, run := get("ingest.next"), get("ingest.consume"), get("ingest.run")
	r.set("ingest.next_us.p50", "us", next.P50US)
	r.set("ingest.next_s.total", "s", next.TotalS)
	r.set("ingest.consume_us.p50", "us", consume.P50US)
	r.set("ingest.consume_us.p99", "us", consume.P99US)
	r.set("ingest.consume_s.total", "s", consume.TotalS)
	r.set("ingest.consume_frac", "ratio", ratio(consume.TotalS, run.TotalS))
	r.set("ingest.retrains", "count", float64(stats.Retrains))
	r.set("ingest.retrains_full", "count", float64(stats.RetrainsFull))
	var retrains []float64
	for _, rec := range stats.RecentRetrains {
		if rec.Error == "" {
			retrains = append(retrains, 1000*rec.Seconds)
		}
	}
	r.set("ingest.retrain_ms.p50", "ms", median(retrains))
	r.set("ingest.retrain_ms.max", "ms", maxOf(retrains))

	train := get("core.train")
	r.set("core.train_ms.p50", "ms", train.P50US/1000)
	r.set("core.train_ms.max", "ms", train.MaxUS/1000)
	for _, stage := range trainStages {
		r.set("core.train."+stage+"_ms.p50", "ms", get("core.train."+stage).P50US/1000)
	}
	swap, snap := get("staleserve.swap"), get("epochstore.snapshot")
	r.set("staleserve.swap_ms.p50", "ms", swap.P50US/1000)
	r.set("staleserve.swap_ms.max", "ms", swap.MaxUS/1000)
	r.set("epochstore.snapshot_ms.p50", "ms", snap.P50US/1000)
	r.set("epochstore.snapshot_ms.max", "ms", snap.MaxUS/1000)
	r.set("epochstore.load_ms", "ms", get("epochstore.load").P50US/1000)

	ip.mu.Lock()
	u := ip.reuse
	ip.mu.Unlock()
	r.set("correlation.pages_reused_frac", "ratio", ratio(float64(u.pagesReused), float64(u.pagesTotal)))
	r.set("assocrules.templates_reused_frac", "ratio", ratio(float64(u.templatesReused), float64(u.templatesTotal)))
	r.set("familycorr.families_reused_frac", "ratio", ratio(float64(u.familiesReused), float64(u.familiesTotal)))
	r.set("seasonal.fields_recomputed", "count", float64(u.seasonalFields))
	r.set("baseline.threshold_fields_recomputed", "count", float64(u.thresholdFields))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeNames are the Go runtime series behind the gc.* metrics (the
// same ones staleserve exports as wikistale_go_*).
var runtimeNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/pause:cpu-seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// runtimeDelta computes the gc.* metrics between two reads. The pause
// series counts CPU time with every P stopped, so it is divided by
// GOMAXPROCS to give wall time.
func runtimeDelta(before, after []metrics.Sample) map[string]metric {
	delta := func(i int) float64 {
		if after[i].Value.Kind() == metrics.KindUint64 {
			return float64(after[i].Value.Uint64() - before[i].Value.Uint64())
		}
		return after[i].Value.Float64() - before[i].Value.Float64()
	}
	return map[string]metric{
		"gc.cycles":   {delta(0), "count"},
		"gc.pause_ms": {1000 * delta(1) / float64(runtime.GOMAXPROCS(0)), "ms"},
		"gc.cpu_frac": {ratio(delta(2), delta(3)), "ratio"},
	}
}

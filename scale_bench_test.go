// Paper-scale benchmark: stream a Scaled() corpus through the live
// ingestion path with no batch cube ever materialized on the producer
// side, then measure what the serving tier actually pays at that scale —
// ingest throughput, heap-live bytes per staged change for the compact
// (columnar) layout versus the legacy []Change+index shadow, and the
// retrain-to-swap latency of a forced full rebuild versus the incremental
// path after a small intra-day delta.
//
// The benchmark is env-gated because the interesting scales take minutes:
//
//	WIKISTALE_SCALE=8 go test -run '^$' -bench BenchmarkScale -benchtime 1x -timeout 90m
//
// WIKISTALE_SCALE multiplies the Default() corpus (~1.26M raw changes), so
// 8 lands past the 10M-change mark of the paper-scale corpus. The measured
// numbers are written as a BENCH_PR4.json-style envelope to
// WIKISTALE_SCALE_OUT (default BENCH_SCALE.json); scripts/scalesmoke.sh
// gates the speedup and bytes-per-change ratios on it.
package wikistale_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/core"
	"github.com/wikistale/wikistale/internal/dataset"
	"github.com/wikistale/wikistale/internal/ingest"
	"github.com/wikistale/wikistale/internal/timeline"
)

// heapLive forces a GC and returns the live heap-object bytes — the
// steady-state resident cost of what the process is holding, unlike
// HeapAlloc which includes garbage not yet collected.
func heapLive() uint64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

type scaleTiming struct {
	NsPerOp int64   `json:"ns_per_op"`
	Seconds float64 `json:"seconds"`
}

type scaleReport struct {
	Comment string `json:"comment"`
	Go      string `json:"go"`
	Date    string `json:"date"`
	Scale   int    `json:"scale"`

	Ingest struct {
		RawEvents     int     `json:"raw_events"`
		StagedChanges int     `json:"staged_changes"`
		Seconds       float64 `json:"seconds"`
		EventsPerSec  float64 `json:"events_per_sec"`
	} `json:"ingest"`

	Memory struct {
		CompactLiveBytes       uint64  `json:"compact_live_bytes"`
		CompactBytesPerChange  float64 `json:"compact_bytes_per_change"`
		LegacyShadowBytes      uint64  `json:"legacy_shadow_bytes"`
		LegacyBytesPerChange   float64 `json:"legacy_bytes_per_change"`
		LegacyOverCompactRatio float64 `json:"legacy_over_compact_ratio"`
	} `json:"memory"`

	Retrain struct {
		Full        scaleTiming `json:"full"`
		Incremental scaleTiming `json:"incremental"`
		Speedup     float64     `json:"speedup"`
	} `json:"retrain"`

	Quality struct {
		DirtyFields         int `json:"dirty_fields"`
		PagesReused         int `json:"pages_reused"`
		PagesRetrained      int `json:"pages_retrained"`
		TemplatesReused     int `json:"templates_reused"`
		TemplatesRetrained  int `json:"templates_retrained"`
		FamiliesReused      int `json:"families_reused"`
		FamiliesRetrained   int `json:"families_retrained"`
		SeasonalRecomputed  int `json:"seasonal_fields_recomputed"`
		ThresholdRecomputed int `json:"threshold_fields_recomputed"`
	} `json:"quality"`
}

// BenchmarkScale runs the full paper-scale pipeline once per -benchtime
// iteration; run it with -benchtime=1x. Skipped unless WIKISTALE_SCALE is
// set.
func BenchmarkScale(b *testing.B) {
	scaleStr := os.Getenv("WIKISTALE_SCALE")
	if scaleStr == "" {
		b.Skip("set WIKISTALE_SCALE=N (Default corpus × N) to run the scale benchmark")
	}
	scale, err := strconv.Atoi(scaleStr)
	if err != nil || scale < 1 {
		b.Fatalf("WIKISTALE_SCALE=%q: want a positive integer", scaleStr)
	}
	for i := 0; i < b.N; i++ {
		runScale(b, scale)
	}
}

func runScale(b *testing.B, scale int) {
	coreCfg := core.DefaultConfig()
	var report scaleReport
	report.Comment = "paper-scale streaming ingest, compact-cube memory accounting, and full-vs-incremental retrain latency"
	report.Go = runtime.Version()
	report.Date = time.Now().UTC().Format("2006-01-02")
	report.Scale = scale

	base := heapLive()

	// --- Ingest: stream the generator straight into staging; no batch
	// cube exists outside the consumer.
	st, err := ingest.NewStaging(coreCfg.Filter)
	if err != nil {
		b.Fatal(err)
	}
	src := ingest.NewSimSource(dataset.Default().Scaled(scale))
	ctx := context.Background()
	rawEvents := 0
	ingestStart := time.Now()
	for {
		events, srcErr := src.Next(ctx)
		if len(events) > 0 {
			if _, err := st.AppendAt(events, src.Position()); err != nil {
				b.Fatal(err)
			}
			rawEvents += len(events)
		}
		if errors.Is(srcErr, io.EOF) {
			break
		}
		if srcErr != nil {
			b.Fatal(srcErr)
		}
	}
	ingestDur := time.Since(ingestStart)

	hs, stats, err := st.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	cube := hs.Cube()
	staged := cube.NumChanges()

	report.Ingest.RawEvents = rawEvents
	report.Ingest.StagedChanges = staged
	report.Ingest.Seconds = ingestDur.Seconds()
	report.Ingest.EventsPerSec = float64(rawEvents) / ingestDur.Seconds()
	b.Logf("ingest: %d raw events -> %d staged changes in %v (%.0f events/s)",
		rawEvents, staged, ingestDur.Round(time.Millisecond), report.Ingest.EventsPerSec)

	// --- Memory: everything the compact serving state keeps live, versus
	// the delta of materializing the pre-compact layout on top of it: one
	// Change row per change with its own value string allocation, the
	// field→changes map index, and a copy of every per-field day history
	// — what the repo held per corpus before the columnar cube.
	compact := heapLive() - base
	legacyChanges := cube.Changes()
	for i := range legacyChanges {
		legacyChanges[i].Value = strings.Clone(legacyChanges[i].Value)
	}
	legacyIndex := make(map[changecube.FieldKey][]changecube.Change)
	for _, ch := range legacyChanges {
		k := changecube.FieldKey{Entity: ch.Entity, Property: ch.Property}
		legacyIndex[k] = append(legacyIndex[k], ch)
	}
	legacyDays := make([][]timeline.Day, hs.Len())
	for i, h := range hs.Histories() {
		legacyDays[i] = append([]timeline.Day(nil), h.Days()...)
	}
	withShadow := heapLive()
	legacy := withShadow - base - compact
	runtime.KeepAlive(legacyChanges)
	runtime.KeepAlive(legacyIndex)
	runtime.KeepAlive(legacyDays)
	legacyChanges, legacyIndex, legacyDays = nil, nil, nil

	report.Memory.CompactLiveBytes = compact
	report.Memory.CompactBytesPerChange = float64(compact) / float64(staged)
	report.Memory.LegacyShadowBytes = legacy
	report.Memory.LegacyBytesPerChange = float64(legacy) / float64(staged)
	report.Memory.LegacyOverCompactRatio = float64(legacy) / float64(compact)
	b.Logf("memory: compact %.1f B/change (%d MiB total), legacy shadow %.1f B/change (%d MiB extra)",
		report.Memory.CompactBytesPerChange, compact>>20,
		report.Memory.LegacyBytesPerChange, legacy>>20)

	// --- Retrain: train once cold to get the reusable previous detector,
	// append a small intra-day delta (the common live case: many retrains
	// per data day, span unchanged), then time a forced full rebuild
	// against the incremental path over the identical snapshot.
	prev, err := core.TrainFiltered(hs, stats, coreCfg)
	if err != nil {
		b.Fatal(err)
	}

	end := hs.Span().End
	lastSecond := end.Unix() - 1 // inside the final existing day: splits stay put
	var delta []ingest.Event
	stride := cube.NumEntities() / 100 // ~100 touched entities spread over the whole range
	if stride < 1 {
		stride = 1
	}
	selected := 0
	lastEntity := changecube.EntityID(-1)
	taking := false
	for _, h := range hs.Histories() {
		if h.Field.Entity != lastEntity {
			lastEntity = h.Field.Entity
			taking = selected < 100 && int(h.Field.Entity)%stride == 0
			if taking {
				selected++
			}
		}
		if !taking {
			continue
		}
		info := cube.Entity(h.Field.Entity)
		delta = append(delta, ingest.Event{
			Time:     lastSecond,
			Page:     cube.Pages.Name(int32(info.Page)),
			Template: cube.Templates.Name(int32(info.Template)),
			Property: cube.Properties.Name(int32(h.Field.Property)),
			Value:    "scale-bench-delta",
			Kind:     changecube.Update,
		})
	}
	if _, err := st.Append(delta); err != nil {
		b.Fatal(err)
	}
	hsd, statsd, err := st.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	// The retrain derives this delta itself; timing it here shows what the
	// derivation costs.
	diffStart := time.Now()
	report.Quality.DirtyFields = len(hsd.ChangedSince(hs))
	b.Logf("delta: %d of %d fields changed, derived in %v",
		report.Quality.DirtyFields, hsd.Len(), time.Since(diffStart).Round(10*time.Microsecond))

	train := func(forceFull bool) (time.Duration, *core.Detector) {
		t0 := time.Now()
		d, err := core.TrainFilteredHintedCtx(ctx, hsd, statsd, coreCfg, core.TrainHints{
			Prev:      prev,
			ForceFull: forceFull,
		})
		if err != nil {
			b.Fatal(err)
		}
		return time.Since(t0), d
	}
	// Full and incremental retrains alternate, so a slow spell of a shared
	// host falls on both, and each keeps its best of scaleRounds: the
	// ratio divides by a short, noisy incremental time.
	const scaleRounds = 7
	fullDur, incDur := time.Duration(1<<62-1), time.Duration(1<<62-1)
	var incDet *core.Detector
	for r := 0; r < scaleRounds; r++ {
		if el, _ := train(true); el < fullDur {
			fullDur = el
		}
		el, d := train(false)
		if el < incDur {
			incDur = el
		}
		incDet = d
	}

	report.Retrain.Full = scaleTiming{NsPerOp: fullDur.Nanoseconds(), Seconds: fullDur.Seconds()}
	report.Retrain.Incremental = scaleTiming{NsPerOp: incDur.Nanoseconds(), Seconds: incDur.Seconds()}
	report.Retrain.Speedup = fullDur.Seconds() / incDur.Seconds()

	ci := incDet.CorrelationRetrain()
	report.Quality.PagesReused, report.Quality.PagesRetrained = ci.PagesReused, ci.PagesRetrained
	ai := incDet.AssocRetrain()
	report.Quality.TemplatesReused, report.Quality.TemplatesRetrained = ai.TemplatesReused, ai.TemplatesRetrained
	fi := incDet.FamilyRetrain()
	report.Quality.FamiliesReused, report.Quality.FamiliesRetrained = fi.FamiliesReused, fi.FamiliesRetrained
	report.Quality.SeasonalRecomputed = incDet.SeasonalRetrain().FieldsRecomputed
	report.Quality.ThresholdRecomputed = incDet.ThresholdRetrain().FieldsRecomputed

	b.Logf("retrain: full %v vs incremental %v -> %.1fx (pages %d/%d, templates %d/%d, families %d/%d reused/retrained)",
		fullDur.Round(time.Millisecond), incDur.Round(time.Millisecond), report.Retrain.Speedup,
		ci.PagesReused, ci.PagesRetrained, ai.TemplatesReused, ai.TemplatesRetrained,
		fi.FamiliesReused, fi.FamiliesRetrained)

	b.ReportMetric(report.Retrain.Speedup, "retrain-speedup-x")
	b.ReportMetric(report.Memory.CompactBytesPerChange, "compact-B/change")
	b.ReportMetric(report.Memory.LegacyBytesPerChange, "legacy-B/change")
	b.ReportMetric(report.Ingest.EventsPerSec, "ingest-events/s")

	out := os.Getenv("WIKISTALE_SCALE_OUT")
	if out == "" {
		out = "BENCH_SCALE.json"
	}
	buf, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	b.Logf("wrote %s", out)
}

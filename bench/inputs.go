package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/core"
	"github.com/wikistale/wikistale/internal/dataset"
	"github.com/wikistale/wikistale/internal/epochstore"
	"github.com/wikistale/wikistale/internal/ingest"
	"github.com/wikistale/wikistale/internal/staleserve"
	"github.com/wikistale/wikistale/internal/timeline"
)

// The corpus is the generator's default behaviour over 20 of its 80
// templates, cut to its first 250 k events in time order: a backfill of it
// fits twice in a ten-second run, where the full default corpus takes ~17 s
// to prepare and ~80 s to backfill. It is generated from corpusSeed whatever
// the benchmark's seed: across generator seeds the corpus shape moved
// detector cost by ±20 % and backfill time by more, which would drown the
// differences the benchmark is for. The benchmark's seed varies what the
// server is asked: which fields are popular, the request streams, and the
// live feed with its probes.
const (
	benchTemplates = 20
	benchEvents    = 250_000
	corpusSeed     = 1
)

// backlogDays is how far the restart store lags the feed in the serve
// workloads: a restart after a week of downtime catches up this much.
const backlogDays = 7

// corpusConfig is the benchmark corpus; small is the harness-test size.
func corpusConfig(small bool) dataset.Config {
	cfg := dataset.Default()
	if small {
		cfg = dataset.Small()
	} else {
		cfg.NumTemplates = benchTemplates
	}
	cfg.Seed = corpusSeed
	return cfg
}

// inputs is everything generated before a workload runs.
// None of it is timed.
type inputs struct {
	feed      string         // JSONL feed of the whole corpus
	events    []ingest.Event // the feed's events, in feed order
	storeLag  string         // epoch store over the feed minus its last backlogDays
	storeFull string         // epoch store over the whole feed
	backlog   int            // events after storeLag's checkpoint
	lagDet    *core.Detector // the epoch in storeLag
	// ref is batch-trained (core.Train) over the whole feed as staged from
	// JSONL: the reference every output check compares against.
	ref     *core.Detector
	catalog []fieldName   // ref's observed fields, shuffled by seed
	early   []fieldName   // fields every backfill epoch serves, shuffled by seed
	span    timeline.Span // ref's data span
}

// prepare generates the corpus for cfg, writes it as a JSONL feed, and
// builds the two epoch stores through the public ingest path:
// JSONLSource → Staging.AppendAt → core.TrainFiltered → Store.Snapshot.
func prepare(ctx context.Context, dir string, cfg dataset.Config, seed int64) (*inputs, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cube, _, err := dataset.Generate(cfg)
	if err != nil {
		return nil, err
	}
	in := &inputs{
		feed:      filepath.Join(dir, "feed.jsonl"),
		events:    ingest.CubeEvents(cube), // in time order
		storeLag:  filepath.Join(dir, "store-lag"),
		storeFull: filepath.Join(dir, "store-full"),
	}
	if len(in.events) > benchEvents {
		in.events = in.events[:benchEvents]
	}
	if err := writeFeed(in.feed, in.events); err != nil {
		return nil, err
	}
	lastDay := timeline.DayOfUnix(in.events[len(in.events)-1].Time)
	cut := len(in.events)
	for cut > 0 && timeline.DayOfUnix(in.events[cut-1].Time) > lastDay-backlogDays {
		cut--
	}
	in.backlog = len(in.events) - cut

	trainCfg := core.DefaultConfig()
	st, err := ingest.NewStaging(trainCfg.Filter)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(in.feed)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	src := ingest.NewJSONLSource(f)
	for consumed := 0; ; {
		// Batches end exactly at the cut, so the lagging store's checkpoint
		// falls on the first backlog event.
		if consumed < cut {
			src.SetBatchSize(min(ingest.DefaultBatchSize, cut-consumed))
		} else {
			src.SetBatchSize(ingest.DefaultBatchSize)
		}
		batch, err := src.Next(ctx)
		if len(batch) > 0 {
			if _, err := st.AppendAt(batch, src.Position()); err != nil {
				return nil, err
			}
			consumed += len(batch)
			if consumed == cut {
				hs, stats, err := st.Snapshot()
				if err != nil {
					return nil, err
				}
				if in.lagDet, err = core.TrainFiltered(hs, stats, trainCfg); err != nil {
					return nil, err
				}
				if err := snapshotStore(ctx, in.storeLag, in.lagDet, st.SnapshotCheckpoint()); err != nil {
					return nil, err
				}
			}
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	hs, _, err := st.Snapshot()
	if err != nil {
		return nil, err
	}
	if in.ref, err = core.Train(hs.Cube(), trainCfg); err != nil {
		return nil, err
	}
	if err := snapshotStore(ctx, in.storeFull, in.ref, st.SnapshotCheckpoint()); err != nil {
		return nil, err
	}
	in.span = in.ref.Histories().Span()
	in.catalog = observedFields(in.ref.Histories())

	// The early fields are observed once the first retrain's events are
	// staged, and no bot edit touches them (a bot revert can take changes
	// away); every epoch of a backfill serves them.
	early, err := ingest.NewStaging(trainCfg.Filter)
	if err != nil {
		return nil, err
	}
	if _, err := early.Append(in.events[:min(len(in.events), ingest.DefaultConfig().RetrainChanges)]); err != nil {
		return nil, err
	}
	earlyHS, _, err := early.Snapshot()
	if err != nil {
		return nil, err
	}
	botTouched := map[fieldName]bool{}
	for _, ev := range in.events {
		if ev.Bot {
			botTouched[fieldName{ev.Page, ev.Property}] = true
		}
	}
	for _, f := range observedFields(earlyHS) {
		if !botTouched[f] {
			in.early = append(in.early, f)
		}
	}
	if len(in.early) == 0 {
		return nil, fmt.Errorf("no field is observed after the first %d events", ingest.DefaultConfig().RetrainChanges)
	}

	rng := rand.New(rand.NewSource(seed))
	for _, fs := range [][]fieldName{in.catalog, in.early} {
		rng.Shuffle(len(fs), func(i, j int) { fs[i], fs[j] = fs[j], fs[i] })
	}
	return in, nil
}

// fieldName is a field as requests name it.
type fieldName struct{ page, property string }

// observedFields lists the (page, property) pairs that have a history in
// hs, in field order. Requests ask about these only: a history-less rule
// consequent stops being servable when a live retrain drops its rule, and
// a probe on a field the training filter drops never shows a change, while
// an observed field stays observed as changes are added.
func observedFields(hs *changecube.HistorySet) []fieldName {
	cube := hs.Cube()
	seen := map[fieldName]bool{}
	var out []fieldName
	for _, h := range hs.Histories() {
		f := fieldName{cube.Pages.Name(int32(cube.Page(h.Field.Entity))), cube.Properties.Name(int32(h.Field.Property))}
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	return out
}

func writeFeed(path string, events []ingest.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ingest.WriteEvents(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func snapshotStore(ctx context.Context, dir string, det *core.Detector, cp ingest.Checkpoint) error {
	es, err := epochstore.Open(epochstore.Options{Dir: dir})
	if err != nil {
		return err
	}
	_, err = es.Snapshot(ctx, det, cp)
	return err
}

// referenceServer serves the given epochs in order, as a staleserve process
// that booted the first and swapped in the rest would.
func referenceServer(dets ...*core.Detector) *staleserve.Server {
	srv := staleserve.NewLive()
	for _, d := range dets {
		srv.Swap(d)
	}
	return srv
}

// serveLocal runs one GET through an in-process handler.
func serveLocal(srv *staleserve.Server, path string) (int, []byte) {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.Bytes()
}

// copyDir copies a flat directory (an epoch store) so each boot starts from
// the same bytes.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// buildServer builds cmd/staleserve from the checkout under test.
func buildServer(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "staleserve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/staleserve")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building staleserve: %w", err)
	}
	return bin, nil
}

package epochstore

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/core"
	"github.com/wikistale/wikistale/internal/dataset"
	"github.com/wikistale/wikistale/internal/ingest"
)

// TestSnapshotEncodeLeavesCubeAlone: a detector trained on a feed that
// arrived out of order serves from an unsorted cube. Encoding its epoch
// must leave that cube's storage as it was, write the change section
// that sorting a clone wrote, decode to the canonical change list, and
// give the same bytes whatever size hint the buffer starts from.
func TestSnapshotEncodeLeavesCubeAlone(t *testing.T) {
	corpus, _, err := dataset.Generate(tinyCorpus())
	if err != nil {
		t.Fatal(err)
	}
	events := ingest.CubeEvents(corpus)
	rng := rand.New(rand.NewSource(5))
	rng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })
	cfg := core.DefaultConfig()
	st, err := ingest.NewStaging(cfg.Filter)
	if err != nil {
		t.Fatal(err)
	}
	for len(events) > 0 {
		n := min(len(events), 1+rng.Intn(200))
		if _, err := st.Append(events[:n]); err != nil {
			t.Fatal(err)
		}
		events = events[n:]
	}
	hs, stats, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.TrainFiltered(hs, stats, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cube := det.Histories().Cube()
	stored := storedChanges(cube)
	inverted := false
	for i := 1; i < len(stored); i++ {
		inverted = inverted || changecube.Less(stored[i], stored[i-1])
	}
	if !inverted {
		t.Fatal("the shuffled feed left the cube in canonical order; the test needs it out of order")
	}

	payload, err := encodeSnapshot(det, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(storedChanges(cube), stored) {
		t.Fatal("encoding reordered the detector's cube")
	}
	for _, hint := range []int{1, len(payload) - 1, len(payload), 4 * len(payload)} {
		again, err := encodeSnapshot(det, nil, nil, hint)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("size hint %d changed the bytes", hint)
		}
	}

	ref := cube.Clone()
	ref.Sort()
	section := ref.AppendChanges([]byte(changesTag))
	if !bytes.Contains(payload, append(binary.AppendUvarint(nil, uint64(len(section))), section...)) {
		t.Fatal("the change section differs from the clone-and-sort encoding")
	}
	got, err := decodeSnapshot(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.cube.Changes(), ref.Changes()) {
		t.Fatal("decoded changes are not the canonical change list")
	}
}

// storedChanges lists a cube's changes in storage order.
func storedChanges(c *changecube.Cube) []changecube.Change {
	out := make([]changecube.Change, 0, c.NumChanges())
	c.EachChange(func(_ int, ch changecube.Change) bool {
		out = append(out, ch)
		return true
	})
	return out
}

package changecube

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"
)

// appendChangesByClone is how AppendChanges encoded before it learned to
// walk a permutation: sort a copy of the changes stably by Less (what
// Sort did to a clone of the cube), then write them in that order. It is
// the reference the sort-free encoder must match byte for byte, and it
// shares no ordering code with Sort.
func appendChangesByClone(c *Cube, buf []byte) []byte {
	changes := c.materialize()
	sort.SliceStable(changes, func(i, j int) bool { return Less(changes[i], changes[j]) })
	buf = binary.AppendUvarint(buf, uint64(len(changes)))
	prev := int64(0)
	for _, ch := range changes {
		buf = appendChange(buf, ch, prev)
		prev = ch.Time
	}
	return buf
}

// storageOrder is the cube's changes as stored, for checking that
// encoding left them alone.
func storageOrder(c *Cube) []Change {
	out := make([]Change, 0, c.NumChanges())
	c.EachChange(func(_ int, ch Change) bool {
		out = append(out, ch)
		return true
	})
	return out
}

// randomPool draws n changes over few times, entities and properties, so
// equal-time entity and property inversions are common. With fullTies,
// some changes also repeat another's (time, entity, property) with a
// different value; without, every change has its own key.
func randomPool(rng *rand.Rand, c *Cube, n int, fullTies bool) []Change {
	ents, props := c.NumEntities(), c.Properties.Len()
	seen := make(map[[3]int64]bool)
	var pool []Change
	for len(pool) < n {
		ch := Change{
			Time:     int64(rng.Intn(1 + n/4)),
			Entity:   EntityID(rng.Intn(ents)),
			Property: PropertyID(rng.Intn(props)),
			Value:    strconv.Itoa(len(pool)),
			Kind:     ChangeKind(rng.Intn(3)),
			Bot:      rng.Intn(5) == 0,
		}
		key := [3]int64{ch.Time, int64(ch.Entity), int64(ch.Property)}
		if seen[key] && !fullTies {
			if len(seen) == (1+n/4)*ents*props {
				break // every key taken
			}
			continue
		}
		seen[key] = true
		pool = append(pool, ch)
	}
	return pool
}

// TestAppendChangesMatchesCloneSort: over random pools added in shuffled
// and in canonical order, AppendChanges encodes exactly what sorting a
// clone encoded, leaves the cube's storage and sortedness as they were,
// and — when no two changes share (time, entity, property) — gives the
// same bytes for every arrival order. One pool spans several log chunks.
func TestAppendChangesMatchesCloneSort(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for round := 0; round < 120; round++ {
		skel := newCodecCube(1 + rng.Intn(5))
		n := rng.Intn(400)
		if round == 0 {
			n = 2*logChunkSize + 123
		}
		fullTies := round%3 == 2
		pool := randomPool(rng, skel, n, fullTies)
		var canonical []byte
		for order := 0; order < 4; order++ {
			arrival := slices.Clone(pool)
			if order == 0 {
				sort.SliceStable(arrival, func(i, j int) bool { return Less(arrival[i], arrival[j]) })
			} else {
				rng.Shuffle(len(arrival), func(i, j int) { arrival[i], arrival[j] = arrival[j], arrival[i] })
			}
			c := skel.Clone()
			for _, ch := range arrival {
				c.Add(ch)
			}
			sorted, stored := c.sorted, storageOrder(c)
			got := c.AppendChanges(nil)
			if want := appendChangesByClone(c, nil); !bytes.Equal(got, want) {
				t.Fatalf("round %d order %d: %d changes encode to %d bytes, clone-and-sort to %d",
					round, order, len(pool), len(got), len(want))
			}
			if c.sorted != sorted || !slices.Equal(storageOrder(c), stored) {
				t.Fatalf("round %d order %d: encoding reordered the cube", round, order)
			}
			if order == 0 {
				if !c.sorted {
					t.Fatalf("round %d: canonical arrival left the cube unsorted", round)
				}
				canonical = got
			} else if !fullTies && !bytes.Equal(got, canonical) {
				t.Fatalf("round %d order %d: arrival order changed the bytes", round, order)
			}
		}
	}
}

// TestAddTiedChangeKeepsCubeSorted: a change that ties the previous one
// on (time, entity, property) keeps a sorted cube sorted, since the
// stable sort would leave the pair as it is, so FieldIndexes does not
// re-sort. A change that sorts before the previous one, on time, entity
// or property, still clears the flag.
func TestAddTiedChangeKeepsCubeSorted(t *testing.T) {
	base := func() *Cube {
		c := newCodecCube(3)
		c.Add(Change{Time: 10, Entity: 1, Property: 1, Value: "a"})
		return c
	}
	for _, tc := range []struct {
		name   string
		next   Change
		sorted bool
	}{
		{"same key, other value", Change{Time: 10, Entity: 1, Property: 1, Value: "b"}, true},
		{"same key, other kind", Change{Time: 10, Entity: 1, Property: 1, Value: "a", Kind: Delete}, true},
		{"identical", Change{Time: 10, Entity: 1, Property: 1, Value: "a"}, true},
		{"later property", Change{Time: 10, Entity: 1, Property: 2}, true},
		{"later time", Change{Time: 11, Entity: 0, Property: 0}, true},
		{"earlier property", Change{Time: 10, Entity: 1, Property: 0}, false},
		{"earlier entity", Change{Time: 10, Entity: 0, Property: 9}, false},
		{"earlier time", Change{Time: 9, Entity: 2, Property: 2}, false},
	} {
		c := base()
		c.Add(tc.next)
		if c.sorted != tc.sorted {
			t.Fatalf("%s: sorted = %v, want %v", tc.name, c.sorted, tc.sorted)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !tc.sorted {
			continue
		}
		before := storageOrder(c)
		_, groups := c.FieldIndexes()
		if !slices.Equal(storageOrder(c), before) {
			t.Fatalf("%s: FieldIndexes re-sorted a sorted cube", tc.name)
		}
		if tc.name == "same key, other value" && !slices.Equal(groups[0], []uint32{0, 1}) {
			t.Fatalf("%s: groups %v, want the pair in arrival order", tc.name, groups)
		}
	}
}

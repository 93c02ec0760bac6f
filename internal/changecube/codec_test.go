package changecube

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// skeleton returns a cube with c's dictionaries and entities and no
// changes, the state a decoder is in when it reaches the change list.
func skeleton(t *testing.T, c *Cube) *Cube {
	t.Helper()
	out := New()
	r := NewReader(c.AppendDicts(nil))
	if err := out.DecodeDicts(r); err != nil {
		t.Fatalf("DecodeDicts: %v", err)
	}
	if r.Len() != 0 {
		t.Fatalf("DecodeDicts left %d bytes", r.Len())
	}
	for e := 0; e < c.NumEntities(); e++ {
		info := c.Entity(EntityID(e))
		out.AddEntity(info.Template, info.Page)
	}
	return out
}

// addRandomChanges adds n random changes, out of time order, over the
// cube's entities and first ten properties.
func addRandomChanges(c *Cube, rng *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		c.Add(Change{
			Time:     rng.Int63n(1<<40) - 1<<39,
			Entity:   EntityID(rng.Intn(c.NumEntities())),
			Property: PropertyID(rng.Intn(10)),
			Value:    randWord(rng),
			Kind:     ChangeKind(rng.Intn(3)),
			Bot:      rng.Intn(4) == 0,
		})
	}
}

// checkChangesRoundTrip decodes c's change list onto a skeleton of c and
// requires the same canonical changes, no leftover bytes, and a
// byte-identical re-encoding.
func checkChangesRoundTrip(t *testing.T, c *Cube) {
	t.Helper()
	buf := c.AppendChanges(nil)
	got := skeleton(t, c)
	r := NewReader(buf)
	if err := got.DecodeChanges(r); err != nil {
		t.Fatalf("DecodeChanges: %v", err)
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes left after the change list", r.Len())
	}
	if got.NumChanges() != c.NumChanges() || !reflect.DeepEqual(c.Changes(), got.Changes()) {
		t.Fatalf("decoded changes differ: n=%d want %d", got.NumChanges(), c.NumChanges())
	}
	if !bytes.Equal(got.AppendChanges(nil), buf) {
		t.Fatal("re-encoding is not byte-identical")
	}
}

// newCodecCube returns a cube with ten properties and the given entities.
func newCodecCube(entities int) *Cube {
	c := New()
	for i := 0; i < 10; i++ {
		c.Properties.Intern(fmt.Sprintf("p%d", i))
	}
	for i := 0; i < entities; i++ {
		c.AddEntityNamed("t", fmt.Sprintf("Page %d", i))
	}
	return c
}

// TestEncodeDecodeChangesRoundTrip: random changes, added out of order,
// decode to the same canonical change list and re-encode byte-identically.
func TestEncodeDecodeChangesRoundTrip(t *testing.T) {
	c := newCodecCube(50)
	addRandomChanges(c, rand.New(rand.NewSource(7)), 200)
	checkChangesRoundTrip(t, c)
}

// TestRandomBatchesRoundTrip: a cube that grows batch by batch round-trips
// after every batch, through the change-list codec and through a full
// WriteBinary/ReadBinary reload.
func TestRandomBatchesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := newCodecCube(0)
	for batch := 0; batch < 8; batch++ {
		c.AddEntityNamed("t", fmt.Sprintf("Page %d", batch))
		addRandomChanges(c, rng, rng.Intn(60))
		checkChangesRoundTrip(t, c)
		var file bytes.Buffer
		if err := c.WriteBinary(&file); err != nil {
			t.Fatalf("batch %d: WriteBinary: %v", batch, err)
		}
		reloaded, err := ReadBinary(&file)
		if err != nil {
			t.Fatalf("batch %d: ReadBinary: %v", batch, err)
		}
		assertCubesEqual(t, c, reloaded)
	}
}

// TestDecodeChangesRejectsDamage: every truncation of a change list, an
// inflated count, and references the cube does not know are errors, never
// panics or partial successes.
func TestDecodeChangesRejectsDamage(t *testing.T) {
	c := New()
	for i := 0; i < 4; i++ {
		c.Properties.Intern(fmt.Sprintf("p%d", i))
	}
	c.AddEntityNamed("t", "A")
	c.AddEntityNamed("t", "B")
	c.Add(Change{Time: 10, Entity: 1, Property: 2, Value: "abc", Kind: Update})
	c.Add(Change{Time: 20, Entity: 1, Property: 3, Value: "defg", Kind: Create, Bot: true})
	buf := c.AppendChanges(nil)
	decode := func(data []byte) error { return skeleton(t, c).DecodeChanges(NewReader(data)) }
	if err := decode(buf); err != nil {
		t.Fatalf("valid list rejected: %v", err)
	}
	for cut := 0; cut < len(buf); cut++ {
		if decode(buf[:cut]) == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if decode([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}) == nil {
		t.Fatal("inflated count accepted")
	}
	// The first record starts after the one-byte count and its one-byte
	// time delta: entity, property, kind.
	for name, at := range map[string]int{"entity": 2, "property": 3, "kind": 4} {
		bad := append([]byte(nil), buf...)
		bad[at] = 0x7F
		if decode(bad) == nil {
			t.Errorf("unknown %s accepted", name)
		}
	}
}

// TestDecodeDictsRejectsDuplicates: a repeated name would intern onto the
// earlier entry and shift every later identifier, so the decoder refuses
// it in every dictionary.
func TestDecodeDictsRejectsDuplicates(t *testing.T) {
	for _, dict := range []string{"properties", "templates", "pages"} {
		c := New()
		d := map[string]*Dict{"properties": c.Properties, "templates": c.Templates, "pages": c.Pages}[dict]
		d.names = []string{"A", "A", "B"} // Intern cannot build this
		if err := New().DecodeDicts(NewReader(c.AppendDicts(nil))); err == nil {
			t.Errorf("%s: duplicate entry accepted", dict)
		}
	}
}

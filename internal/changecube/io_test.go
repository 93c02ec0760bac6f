package changecube

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestBinaryRoundTripSmall(t *testing.T) {
	c, _ := buildTestCube()
	var buf bytes.Buffer
	if err := c.WriteBinary(&buf); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	assertCubesEqual(t, c, got)
}

func assertCubesEqual(t *testing.T, want, got *Cube) {
	t.Helper()
	if !reflect.DeepEqual(want.Properties.Names(), got.Properties.Names()) {
		t.Fatal("property dictionaries differ")
	}
	if !reflect.DeepEqual(want.Templates.Names(), got.Templates.Names()) {
		t.Fatal("template dictionaries differ")
	}
	if !reflect.DeepEqual(want.Pages.Names(), got.Pages.Names()) {
		t.Fatal("page dictionaries differ")
	}
	if want.NumEntities() != got.NumEntities() {
		t.Fatalf("entity counts differ: %d vs %d", want.NumEntities(), got.NumEntities())
	}
	for i := 0; i < want.NumEntities(); i++ {
		if want.Entity(EntityID(i)) != got.Entity(EntityID(i)) {
			t.Fatalf("entity %d differs", i)
		}
	}
	if !reflect.DeepEqual(want.Changes(), got.Changes()) {
		t.Fatal("change lists differ")
	}
}

func randomCube(rng *rand.Rand, nEntities, nProps, nChanges int) *Cube {
	c := New()
	for i := 0; i < nProps; i++ {
		// Suffix with the index: random words may collide, and Intern
		// deduplicates, which would leave fewer ids than requested.
		c.Properties.Intern(fmt.Sprintf("%s#%d", randWord(rng), i))
	}
	for i := 0; i < nEntities; i++ {
		c.AddEntityNamed(randWord(rng), randWord(rng))
	}
	for i := 0; i < nChanges; i++ {
		c.Add(Change{
			Time:     rng.Int63n(1 << 33),
			Entity:   EntityID(rng.Intn(nEntities)),
			Property: PropertyID(rng.Intn(nProps)),
			Value:    randWord(rng),
			Kind:     ChangeKind(rng.Intn(3)),
			Bot:      rng.Intn(10) == 0,
		})
	}
	return c
}

func randWord(rng *rand.Rand) string {
	const alphabet = "abcdefghijklmnop_0123 |é"
	n := rng.Intn(12)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(alphabet[rng.Intn(len(alphabet))])
	}
	return b.String()
}

// TestBinaryRoundTripRandom serializes and re-reads many random cubes.
func TestBinaryRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 25; iter++ {
		c := randomCube(rng, 1+rng.Intn(20), 1+rng.Intn(10), rng.Intn(400))
		var buf bytes.Buffer
		if err := c.WriteBinary(&buf); err != nil {
			t.Fatalf("iter %d: WriteBinary: %v", iter, err)
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("iter %d: ReadBinary: %v", iter, err)
		}
		assertCubesEqual(t, c, got)
		if err := got.Validate(); err != nil {
			t.Fatalf("iter %d: deserialized cube invalid: %v", iter, err)
		}
	}
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     nil,
		"bad magic": []byte("NOPE????"),
		"truncated": []byte("WCC1\x05"),
	}
	for name, data := range cases {
		if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: ReadBinary accepted garbage", name)
		}
	}
}

func TestReadBinaryRejectsTruncatedValid(t *testing.T) {
	c, _ := buildTestCube()
	var buf bytes.Buffer
	if err := c.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every prefix must error, not panic.
	for cut := 0; cut < len(full); cut++ {
		if _, err := ReadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("prefix of %d bytes accepted", cut)
		}
	}
}

// TestReadBinaryRejectsDuplicateDictEntry: a repeated page name used to
// intern onto the first entry, so the entity on page 1 read back on page
// "B" with no error and a cube that still validated.
func TestReadBinaryRejectsDuplicateDictEntry(t *testing.T) {
	c, err := ReadBinary(bytes.NewReader(duplicatePageBinary()))
	if err == nil {
		t.Fatalf("duplicate page accepted; entity 0 reads back on page %q", c.Pages.Name(int32(c.Page(0))))
	}
}

package changecube

import (
	"bytes"
	"testing"
)

// FuzzReadBinary feeds arbitrary bytes to the cube deserializer: it must
// reject or accept, never panic, and anything accepted must validate.
func FuzzReadBinary(f *testing.F) {
	valid, _ := buildFuzzSeed()
	f.Add(valid)
	f.Add([]byte("WCC1"))
	f.Add([]byte{})
	f.Add(duplicatePageBinary())
	f.Fuzz(func(t *testing.T, data []byte) {
		cube, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := cube.Validate(); err != nil {
			t.Fatalf("accepted cube fails validation: %v", err)
		}
	})
}

func buildFuzzSeed() ([]byte, error) {
	c := New()
	e := c.AddEntityNamed("infobox t", "Page")
	p := PropertyID(c.Properties.Intern("prop"))
	c.Add(Change{Time: 100, Entity: e, Property: p, Value: "v", Kind: Update})
	var buf bytes.Buffer
	err := c.WriteBinary(&buf)
	return buf.Bytes(), err
}

// duplicatePageBinary encodes a cube whose page dictionary repeats a name:
// pages ["A", "A", "B"] and one entity on page 1. Interning the repeat
// would shift the entity onto page "B".
func duplicatePageBinary() []byte {
	c := New()
	c.Templates.Intern("t")
	c.Pages.names = []string{"A", "A", "B"} // Intern cannot build this
	c.AddEntity(0, 1)
	var buf bytes.Buffer
	c.WriteBinary(&buf)
	return buf.Bytes()
}

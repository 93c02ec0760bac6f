package changecube

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Binary (.wcc) format: magic "WCC1", the codec's dictionaries, a uvarint
// entity count with a uvarint template and page per entity, then the
// codec's change list (see codec.go).

const binaryMagic = "WCC1"

// WriteBinary serializes the cube in its canonical change order.
func (c *Cube) WriteBinary(w io.Writer) error {
	buf := c.AppendDicts([]byte(binaryMagic))
	buf = binary.AppendUvarint(buf, uint64(len(c.entities)))
	for _, e := range c.entities {
		buf = binary.AppendUvarint(buf, uint64(e.Template))
		buf = binary.AppendUvarint(buf, uint64(e.Page))
	}
	buf = c.AppendChanges(buf)
	_, err := w.Write(buf)
	return err
}

// ReadBinary deserializes a cube written by WriteBinary.
func ReadBinary(r io.Reader) (*Cube, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("changecube: reading cube: %w", err)
	}
	c, err := decodeBinary(data)
	if err != nil {
		return nil, fmt.Errorf("changecube: %w", err)
	}
	return c, nil
}

func decodeBinary(data []byte) (*Cube, error) {
	r := NewReader(data)
	magic, err := r.Take(len(binaryMagic), "magic")
	if err != nil {
		return nil, err
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("bad magic %q", magic)
	}
	c := New()
	if err := c.DecodeDicts(r); err != nil {
		return nil, err
	}
	entities, err := r.Count("entities")
	if err != nil {
		return nil, err
	}
	for i := 0; i < entities; i++ {
		template, err := r.Uvarint("entity template")
		if err != nil {
			return nil, err
		}
		page, err := r.Uvarint("entity page")
		if err != nil {
			return nil, err
		}
		if template >= uint64(c.Templates.Len()) || page >= uint64(c.Pages.Len()) {
			return nil, fmt.Errorf("entity %d references unknown template/page", i)
		}
		c.AddEntity(TemplateID(template), PageID(page))
	}
	if err := c.DecodeChanges(r); err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%d trailing bytes", r.Len())
	}
	return c, nil
}

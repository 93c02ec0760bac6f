package changecube

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
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

// JSONChange is the JSON-lines interchange record for one change, with the
// string dimensions resolved.
type JSONChange struct {
	Time     int64  `json:"time"`
	Page     string `json:"page"`
	Template string `json:"template"`
	Entity   int32  `json:"entity"`
	Property string `json:"property"`
	Value    string `json:"value,omitempty"`
	Kind     string `json:"kind"`
	Bot      bool   `json:"bot,omitempty"`
}

// WriteJSONL writes the cube as one JSON object per change, resolving the
// interned dimensions to strings.
func (c *Cube) WriteJSONL(w io.Writer) error {
	c.Sort()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	var encErr error
	c.EachChange(func(_ int, ch Change) bool {
		info := c.entities[ch.Entity]
		rec := JSONChange{
			Time:     ch.Time,
			Page:     c.Pages.Name(int32(info.Page)),
			Template: c.Templates.Name(int32(info.Template)),
			Entity:   int32(ch.Entity),
			Property: c.Properties.Name(int32(ch.Property)),
			Value:    ch.Value,
			Kind:     ch.Kind.String(),
			Bot:      ch.Bot,
		}
		if err := enc.Encode(rec); err != nil {
			encErr = err
			return false
		}
		return true
	})
	if encErr != nil {
		return encErr
	}
	return bw.Flush()
}

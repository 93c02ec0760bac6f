package changecube

import (
	"encoding/binary"
	"fmt"
	"unsafe"
)

// The cube codec: the one definition of a cube's bytes, shared by the
// .wcc file (WriteBinary/ReadBinary) and the epoch store's snapshots.
//
//	dictionaries (properties, templates, pages), each:
//	    uvarint count, then per name: uvarint length + bytes
//	change list:
//	    uvarint count, then per change in canonical order:
//	    varint time delta (seconds, vs. previous change)
//	    uvarint entity, uvarint property, byte kind|botFlag,
//	    uvarint value length + bytes
//
// Delta-encoding the timestamps keeps sorted cubes compact. The entity
// table sits between the two and is written by each container, since the
// snapshot's carries infobox ordinals.

const botFlag = 0x80

// AppendDicts appends the cube's three dictionaries to buf.
func (c *Cube) AppendDicts(buf []byte) []byte {
	for _, d := range []*Dict{c.Properties, c.Templates, c.Pages} {
		buf = binary.AppendUvarint(buf, uint64(d.Len()))
		for _, name := range d.Names() {
			buf = binary.AppendUvarint(buf, uint64(len(name)))
			buf = append(buf, name...)
		}
	}
	return buf
}

// DecodeDicts reads AppendDicts' bytes into the dictionaries of a new
// cube. A name repeated within one dictionary is an error: interning it
// would collapse the two entries and shift every later identifier.
func (c *Cube) DecodeDicts(r *Reader) error {
	for _, d := range []struct {
		name, entry string
		dict        *Dict
	}{
		{"properties", "property", c.Properties},
		{"templates", "template", c.Templates},
		{"pages", "page", c.Pages},
	} {
		n, err := r.Count(d.name)
		if err != nil {
			return err
		}
		d.dict.Grow(n)
		for i := 0; i < n; i++ {
			raw, err := r.Bytes(d.entry)
			if err != nil {
				return err
			}
			if id := d.dict.Intern(string(raw)); int(id) != i {
				return fmt.Errorf("duplicate %s %q", d.entry, raw)
			}
		}
	}
	return nil
}

// AppendChanges appends the cube's change list in canonical order. A
// sorted cube is walked as stored; otherwise the changes are encoded
// through canonicalOrder's permutation of the log. Either way the cube is
// only read, never reordered or materialized as a []Change, so a
// detector's cube can be encoded while it serves.
func (c *Cube) AppendChanges(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(c.NumChanges()))
	prev := int64(0)
	if c.sorted {
		c.EachChange(func(_ int, ch Change) bool {
			buf = appendChange(buf, ch, prev)
			prev = ch.Time
			return true
		})
		return buf
	}
	for _, i := range c.canonicalOrder() {
		ch := c.log.at(int(i))
		buf = appendChange(buf, ch, prev)
		prev = ch.Time
	}
	return buf
}

func appendChange(buf []byte, ch Change, prev int64) []byte {
	buf = binary.AppendVarint(buf, ch.Time-prev)
	buf = binary.AppendUvarint(buf, uint64(ch.Entity))
	buf = binary.AppendUvarint(buf, uint64(ch.Property))
	kind := byte(ch.Kind)
	if ch.Bot {
		kind |= botFlag
	}
	buf = append(buf, kind)
	buf = binary.AppendUvarint(buf, uint64(len(ch.Value)))
	return append(buf, ch.Value...)
}

// DecodeChanges reads an AppendChanges list into the cube. Each change's
// entity, property and kind are checked against the cube before Add,
// which panics on unknown references, so malformed input is an error.
// A value goes from the payload straight into the cube's arena: no
// string is allocated per change.
func (c *Cube) DecodeChanges(r *Reader) error {
	n, err := r.Count("changes")
	if err != nil {
		return err
	}
	prev := int64(0)
	for i := 0; i < n; i++ {
		ch, err := c.decodeChange(r, prev)
		if err != nil {
			return fmt.Errorf("change %d: %w", i, err)
		}
		c.Add(ch)
		prev = ch.Time
	}
	return nil
}

// decodeChange reads one change. Its value aliases the payload, so the
// change is only good for an immediate Add, which copies the value into
// the arena.
func (c *Cube) decodeChange(r *Reader, prev int64) (Change, error) {
	dt, err := r.Varint("time")
	if err != nil {
		return Change{}, err
	}
	entity, err := r.Uvarint("entity")
	if err != nil {
		return Change{}, err
	}
	property, err := r.Uvarint("property")
	if err != nil {
		return Change{}, err
	}
	kind, err := r.Byte("kind")
	if err != nil {
		return Change{}, err
	}
	value, err := r.Bytes("value")
	if err != nil {
		return Change{}, err
	}
	if entity >= uint64(len(c.entities)) {
		return Change{}, fmt.Errorf("unknown entity %d", entity)
	}
	if property >= uint64(c.Properties.Len()) {
		return Change{}, fmt.Errorf("unknown property %d", property)
	}
	if kind&^botFlag > byte(Delete) {
		return Change{}, fmt.Errorf("invalid kind %d", kind&^botFlag)
	}
	return Change{
		Time:     prev + dt,
		Entity:   EntityID(entity),
		Property: PropertyID(property),
		Value:    unsafe.String(unsafe.SliceData(value), len(value)),
		Kind:     ChangeKind(kind &^ botFlag),
		Bot:      kind&botFlag != 0,
	}, nil
}

// Reader walks an encoded payload in memory. Every read is bounds-checked:
// a short or malformed payload is an error naming the item being read,
// never a panic.
type Reader struct {
	data []byte
	pos  int
}

// NewReader returns a Reader positioned at the start of data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.data) - r.pos }

// Byte reads one byte.
func (r *Reader) Byte(what string) (byte, error) {
	if r.pos >= len(r.data) {
		return 0, fmt.Errorf("%s: truncated", what)
	}
	b := r.data[r.pos]
	r.pos++
	return b, nil
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%s: truncated or overlong varint", what)
	}
	r.pos += n
	return v, nil
}

// Varint reads a signed varint.
func (r *Reader) Varint(what string) (int64, error) {
	v, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%s: truncated or overlong varint", what)
	}
	r.pos += n
	return v, nil
}

// Count reads a uvarint item count. Every counted item takes at least one
// byte, so a count larger than the unread payload is rejected before a
// caller sizes anything by it.
func (r *Reader) Count(what string) (int, error) {
	v, err := r.Uvarint(what)
	if err != nil {
		return 0, err
	}
	if v > uint64(r.Len()) {
		return 0, fmt.Errorf("%s count %d exceeds payload", what, v)
	}
	return int(v), nil
}

// Take consumes the next n bytes. The result aliases the payload.
func (r *Reader) Take(n int, what string) ([]byte, error) {
	if n < 0 || n > r.Len() {
		return nil, fmt.Errorf("%s: truncated", what)
	}
	out := r.data[r.pos : r.pos+n]
	r.pos += n
	return out, nil
}

// Bytes reads a length-prefixed byte run. The result aliases the payload.
func (r *Reader) Bytes(what string) ([]byte, error) {
	n, err := r.Count(what)
	if err != nil {
		return nil, err
	}
	return r.Take(n, what)
}

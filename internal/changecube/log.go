package changecube

import (
	"fmt"
	"unsafe"
)

// The change log is the cube's packed column storage: changes live in
// fixed-capacity chunks of parallel arrays (struct-of-arrays) instead of a
// single []Change, and values live in shared append-only byte arenas
// instead of one heap allocation per string. Two properties follow:
//
//   - A resident change costs ~25 bytes plus its value bytes, against ~56
//     bytes (40-byte struct plus a per-value allocation) for the
//     array-of-structs layout — the difference between fitting a
//     paper-scale corpus in memory and not.
//   - Sealed chunks and arena blocks are immutable, so Clone shares them
//     and deep-copies only the open tail chunk: snapshot clones cost
//     O(chunk), not O(corpus), which is what keeps live-ingestion
//     snapshots cheap while tens of millions of changes are staged.
//
// Value strings are materialized with unsafe.String over the arena bytes.
// That is safe because arena blocks are never grown in place (a value that
// does not fit the active block opens a new one) and never mutated after
// append; the interior pointer keeps the block alive for as long as any
// returned string lives.

const (
	logChunkShift = 15
	logChunkSize  = 1 << logChunkShift // changes per chunk
	logChunkMask  = logChunkSize - 1

	arenaBlockCap = 1 << 20 // value arena block capacity (bytes)

	// vref packs a value's arena location into one word:
	// block (20 bits) | offset (20 bits) | length (24 bits).
	vrefOffBits = 20
	vrefLenBits = 24
	vrefLenMask = 1<<vrefLenBits - 1
	vrefOffMask = 1<<vrefOffBits - 1

	maxValueLen = vrefLenMask // 16 MiB, matching the io codec's cap
)

// kindBot packs a ChangeKind and the bot flag into one byte.
const kindBotFlag = 0x80

// logChunk is one fixed-capacity column block.
type logChunk struct {
	times []int64
	ents  []int32
	props []int32
	kinds []uint8  // ChangeKind | kindBotFlag
	vrefs []uint64 // packed arena reference
}

func newLogChunk() *logChunk {
	return &logChunk{
		times: make([]int64, 0, logChunkSize),
		ents:  make([]int32, 0, logChunkSize),
		props: make([]int32, 0, logChunkSize),
		kinds: make([]uint8, 0, logChunkSize),
		vrefs: make([]uint64, 0, logChunkSize),
	}
}

// clone deep-copies the chunk (used for the open tail on Clone, so the
// copy's appends never share backing arrays with the original's).
func (c *logChunk) clone() *logChunk {
	out := newLogChunk()
	out.times = append(out.times, c.times...)
	out.ents = append(out.ents, c.ents...)
	out.props = append(out.props, c.props...)
	out.kinds = append(out.kinds, c.kinds...)
	out.vrefs = append(out.vrefs, c.vrefs...)
	return out
}

// changeLog is the packed change list.
type changeLog struct {
	chunks []*logChunk
	blocks [][]byte // value arena; all blocks but the active one are sealed
	active int      // index of the block new values append to; -1 forces a fresh block
	n      int
}

func newChangeLog() changeLog {
	return changeLog{active: -1}
}

func (l *changeLog) len() int { return l.n }

// internValue copies the value bytes into the arena and returns its vref.
func (l *changeLog) internValue(v string) uint64 {
	if len(v) == 0 {
		return 0
	}
	if len(v) > maxValueLen {
		panic(fmt.Sprintf("changecube: value length %d exceeds %d", len(v), maxValueLen))
	}
	capNeeded := len(v)
	if l.active < 0 || len(l.blocks[l.active])+capNeeded > cap(l.blocks[l.active]) {
		blockCap := arenaBlockCap
		if capNeeded > blockCap {
			blockCap = capNeeded
		}
		l.blocks = append(l.blocks, make([]byte, 0, blockCap))
		l.active = len(l.blocks) - 1
	}
	block := l.active
	off := len(l.blocks[block])
	l.blocks[block] = append(l.blocks[block], v...)
	return uint64(block)<<(vrefOffBits+vrefLenBits) | uint64(off)<<vrefLenBits | uint64(len(v))
}

// value resolves a vref to its string, zero-copy.
func (l *changeLog) value(ref uint64) string {
	n := int(ref & vrefLenMask)
	if n == 0 {
		return ""
	}
	off := int(ref >> vrefLenBits & vrefOffMask)
	block := l.blocks[ref>>(vrefOffBits+vrefLenBits)]
	return unsafe.String(&block[off], n)
}

// add appends one change and returns its index.
func (l *changeLog) add(ch Change) int {
	var tail *logChunk
	if len(l.chunks) > 0 {
		tail = l.chunks[len(l.chunks)-1]
	}
	if tail == nil || len(tail.times) == logChunkSize {
		tail = newLogChunk()
		l.chunks = append(l.chunks, tail)
	}
	tail.times = append(tail.times, ch.Time)
	tail.ents = append(tail.ents, int32(ch.Entity))
	tail.props = append(tail.props, int32(ch.Property))
	kb := uint8(ch.Kind)
	if ch.Bot {
		kb |= kindBotFlag
	}
	tail.kinds = append(tail.kinds, kb)
	tail.vrefs = append(tail.vrefs, l.internValue(ch.Value))
	idx := l.n
	l.n++
	return idx
}

// at materializes the change at index i. The value string aliases the
// arena (zero-copy) and stays valid for the life of the log and beyond.
func (l *changeLog) at(i int) Change {
	c := l.chunks[i>>logChunkShift]
	j := i & logChunkMask
	kb := c.kinds[j]
	return Change{
		Time:     c.times[j],
		Entity:   EntityID(c.ents[j]),
		Property: PropertyID(c.props[j]),
		Value:    l.value(c.vrefs[j]),
		Kind:     ChangeKind(kb &^ kindBotFlag),
		Bot:      kb&kindBotFlag != 0,
	}
}

// field returns the field of the change at index i without materializing
// the change.
func (l *changeLog) field(i int) FieldKey {
	c := l.chunks[i>>logChunkShift]
	j := i & logChunkMask
	return FieldKey{Entity: EntityID(c.ents[j]), Property: PropertyID(c.props[j])}
}

// timeAt returns the timestamp at index i without materializing the change.
func (l *changeLog) timeAt(i int) int64 {
	return l.chunks[i>>logChunkShift].times[i&logChunkMask]
}

// each visits changes [lo, hi) in index order; returning false stops.
func (l *changeLog) each(lo, hi int, fn func(int, Change) bool) {
	for i := lo; i < hi; i++ {
		if !fn(i, l.at(i)) {
			return
		}
	}
}

// clone returns a copy-on-write copy: sealed chunks and arena blocks are
// shared (they are immutable), the open tail chunk is deep-copied, and the
// copy opens a fresh arena block on its first value append so the shared
// active block is never written through two logs.
func (l *changeLog) clone() changeLog {
	out := changeLog{
		chunks: append([]*logChunk(nil), l.chunks...),
		blocks: append([][]byte(nil), l.blocks...),
		active: -1, // first append after the clone opens a fresh block
		n:      l.n,
	}
	if len(out.chunks) > 0 {
		if tail := out.chunks[len(out.chunks)-1]; len(tail.times) < logChunkSize {
			out.chunks[len(out.chunks)-1] = tail.clone()
		}
	}
	return out
}

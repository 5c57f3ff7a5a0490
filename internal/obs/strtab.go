package obs

import (
	"encoding/binary"
	"hash/maphash"
)

// strtab is a tracer's intern table: the strings its ring slots name
// (span names, errors, job IDs that are not job keys, and each span's
// tenant and attributes encoded as one string), every distinct one
// stored once and addressed by a uint32 index. An entry counts the slot
// fields that hold its index and is freed when the last of them is
// overwritten, so the table never holds a string the ring has dropped,
// and the ring bounds it.
//
// Nothing the table allocates holds a pointer either. Its strings'
// bytes sit end to end in one buffer, which reserve replaces with one
// holding only the live bytes when it fills. So it pins no caller's
// string, and a string takes its length, not a string header and an
// allocation rounded up to a size class. All methods run under the
// tracer's lock.
type strtab struct {
	buf   []byte   // live entries' bytes, and freed ones' until the next reserve that overflows
	ents  []strEnt // by index; index 0 is "", which no field counts
	free  uint32   // first free index, 0 when none; a free entry's off links the next
	cells []uint32 // linear-probed hash set of the live indexes (0 marks an empty cell): a power of two long, at most 7/8 full
	live  int      // live entries
	bytes int      // live entries' bytes
	seed  maphash.Seed
	enc   []byte // scratch for internAttrs's encoding
}

// strEnt is one entry: its bytes are buf[off:off+n], and refs slot
// fields hold its index (0 when free).
type strEnt struct{ off, n, refs uint32 }

func newStrtab() strtab {
	return strtab{ents: make([]strEnt, 1), cells: make([]uint32, 64), seed: maphash.MakeSeed()}
}

// at returns entry i's bytes, valid until the next reserve.
func (t *strtab) at(i uint32) []byte {
	e := &t.ents[i]
	return t.buf[e.off : e.off+e.n]
}

// str returns entry i as a string of its own ("" for index 0).
func (t *strtab) str(i uint32) string { return string(t.at(i)) }

// intern counts one more holder of s and returns its index, adding s if
// the table lacks it. The empty string is index 0 and is not counted.
func (t *strtab) intern(s string) uint32 {
	if s == "" {
		return 0
	}
	t.reserve(len(s))
	return t.commit(append(t.buf, s...))
}

// internAttrs interns a span's tenant and attributes as one entry: each
// string prefixed by its length, the tenant first, then every key and
// value in the order they were set. No tenant and no attributes is
// index 0.
func (t *strtab) internAttrs(tenant string, attrs Attrs) uint32 {
	if tenant == "" && len(attrs) == 0 {
		return 0
	}
	b := appendField(t.enc[:0], tenant)
	for _, a := range attrs {
		b = appendField(appendField(b, a.Key), a.Value)
	}
	t.enc = b
	t.reserve(len(b))
	return t.commit(append(t.buf, b...))
}

// commit interns the non-empty string that b holds past t.buf's length
// (b is t.buf appended to within its capacity): it keeps those bytes as
// a new entry, or leaves them as spare capacity when the string is
// already in the table.
func (t *strtab) commit(b []byte) uint32 {
	s := b[len(t.buf):]
	c, i := t.find(s)
	if i != 0 {
		t.ents[i].refs++
		return i
	}
	if i = t.free; i != 0 {
		t.free = t.ents[i].off
	} else {
		i = uint32(len(t.ents))
		t.ents = append(t.ents, strEnt{})
	}
	t.ents[i] = strEnt{off: uint32(len(t.buf)), n: uint32(len(s)), refs: 1}
	t.buf = b
	t.cells[c] = i
	t.live++
	t.bytes += len(s)
	if 8*t.live > 7*len(t.cells) {
		t.rehash(2 * len(t.cells))
	}
	return i
}

// release drops one holder of index i, freeing the entry with its last.
func (t *strtab) release(i uint32) {
	if i == 0 {
		return
	}
	e := &t.ents[i]
	if e.refs--; e.refs > 0 {
		return
	}
	t.unlink(i)
	t.live--
	t.bytes -= int(e.n)
	*e = strEnt{off: t.free}
	t.free = i
}

// find returns the cell that holds s's index, or the empty cell where
// it belongs and index 0.
func (t *strtab) find(s []byte) (int, uint32) {
	mask := len(t.cells) - 1
	for c := t.home(s); ; c = (c + 1) & mask {
		if i := t.cells[c]; i == 0 || string(t.at(i)) == string(s) {
			return c, i
		}
	}
}

// home is the cell where a probe for s starts.
func (t *strtab) home(s []byte) int {
	return int(maphash.Bytes(t.seed, s) & uint64(len(t.cells)-1))
}

// unlink empties the cell of live index i, moving each later cell of
// its probe run back into the gap when the gap lies on that cell's own
// probe path (linear probing's deletion, which leaves no tombstones).
func (t *strtab) unlink(i uint32) {
	mask := len(t.cells) - 1
	gap, _ := t.find(t.at(i))
	for c := (gap + 1) & mask; t.cells[c] != 0; c = (c + 1) & mask {
		if (c-t.home(t.at(t.cells[c])))&mask >= (c-gap)&mask {
			t.cells[gap] = t.cells[c]
			gap = c
		}
	}
	t.cells[gap] = 0
}

// rehash rebuilds the hash set n cells long.
func (t *strtab) rehash(n int) {
	t.cells = make([]uint32, n)
	for i := 1; i < len(t.ents); i++ {
		if t.ents[i].refs > 0 {
			c, _ := t.find(t.at(uint32(i)))
			t.cells[c] = uint32(i)
		}
	}
}

// reserve makes room for n more bytes past t.buf's length. A buffer
// that lacks it is replaced by one holding only the live entries'
// bytes, with an eighth of their size again to spare: growth and the
// dropping of freed bytes are one copy, and the buffer stays within
// about 1.125 times what the live strings take.
func (t *strtab) reserve(n int) {
	if len(t.buf)+n <= cap(t.buf) {
		return
	}
	size := t.bytes + n
	buf := make([]byte, 0, size+size/8+64)
	for i := 1; i < len(t.ents); i++ {
		if e := &t.ents[i]; e.refs > 0 {
			off := len(buf)
			buf = append(buf, t.buf[e.off:e.off+e.n]...)
			e.off = uint32(off)
		}
	}
	t.buf = buf
}

// appendField appends s prefixed by its length.
func appendField(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// cutField splits the length-prefixed string at the front of s (the form
// appendField writes) from the rest.
func cutField(s string) (f, rest string) {
	var n, shift uint
	for {
		c := s[0]
		s = s[1:]
		n |= uint(c&0x7f) << shift
		if c < 0x80 {
			return s[:n], s[n:]
		}
		shift += 7
	}
}

// decodeAttrs inverts internAttrs's encoding. The strings share s's
// bytes; no attributes decode as nil, as a span that set none holds.
func decodeAttrs(s string) (tenant string, attrs Attrs) {
	if s == "" {
		return "", nil
	}
	tenant, s = cutField(s)
	for s != "" {
		var a Attr
		a.Key, s = cutField(s)
		a.Value, s = cutField(s)
		attrs = append(attrs, a)
	}
	return tenant, attrs
}

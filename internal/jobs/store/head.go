package store

import (
	"encoding"
	"encoding/json"
	"reflect"
	"strings"

	"regvirt/internal/jobs"
)

// A standby applies a shipped batch by each frame's sequence number and
// operation alone, and an accept's job spec is most of its frame.
// nextFrameHead reads those two without building the record, yet takes
// exactly the frames nextFrame takes, so every frame a standby keeps
// replays on adoption: a frame in the one encoding frameRecord writes
// is read by a scanner of that encoding, which decides it only where
// json.Unmarshal into a Record must succeed, and every other frame goes
// to decodeRecord.

// nextFrameHead is nextFrame returning only the record's Seq and Op (one
// of the Op constants).
func nextFrameHead(data []byte) (seq uint64, op string, n int, ok bool) {
	payload, n, ok := framePayload(data)
	if !ok {
		return 0, "", 0, false
	}
	if seq, op, known, valid := scanRecord(payload); known {
		if !valid {
			return 0, "", 0, false
		}
		return seq, op, n, true
	}
	rec, ok := decodeRecord(payload)
	if !ok {
		return 0, "", 0, false
	}
	return rec.Seq, rec.Op, n, true
}

// scanRecord reads a payload in frameRecord's encoding of a Record:
//
//	{"seq":N,"op":"OP","id":"ID"[,"async":true][,"job":{...}][,"err":"..."]}
//
// with no whitespace, plain op and id strings, and a job object whose
// every key is a jobs.Job field's JSON name and whose every value is a
// literal of that field's type. For such a payload json.Unmarshal
// succeeds, so known is true and valid is validRecord's verdict. For
// any other, known is false.
func scanRecord(p []byte) (seq uint64, op string, known, valid bool) {
	s := recScanner{p: p}
	if !s.lit(`{"seq":`) {
		return
	}
	seq, ok := s.uint()
	if !ok || !s.lit(`,"op":`) {
		return
	}
	opb, ok := s.plain()
	if !ok || !s.lit(`,"id":`) {
		return
	}
	id, ok := s.plain()
	if !ok {
		return
	}
	s.lit(`,"async":true`)
	hasJob := s.lit(`,"job":`)
	if hasJob && !s.job() {
		return
	}
	if s.lit(`,"err":`) && !s.str() {
		return
	}
	if !s.lit(`}`) || s.i != len(p) {
		return
	}
	switch string(opb) {
	case OpAccept:
		op, valid = OpAccept, hasJob
	case OpDone:
		op, valid = OpDone, true
	case OpFailed:
		op, valid = OpFailed, true
	}
	// A plain string decodes to its bytes, which safeID takes only
	// when every one is ASCII; invalid UTF-8 decodes to U+FFFD, which it
	// refuses as it refuses any other non-ASCII rune.
	return seq, op, true, valid && safeID(string(id))
}

// recScanner walks a payload.
type recScanner struct {
	p []byte
	i int
}

// lit consumes lit if the payload continues with it.
func (s *recScanner) lit(lit string) bool {
	if len(s.p)-s.i < len(lit) || string(s.p[s.i:s.i+len(lit)]) != lit {
		return false
	}
	s.i += len(lit)
	return true
}

// uint consumes a JSON integer without sign, fraction or exponent that
// fits in a uint64.
func (s *recScanner) uint() (uint64, bool) {
	start := s.i
	var v uint64
	for s.i < len(s.p) && s.p[s.i] >= '0' && s.p[s.i] <= '9' {
		d := uint64(s.p[s.i] - '0')
		if v > (1<<64-1-d)/10 {
			return 0, false
		}
		v = v*10 + d
		s.i++
	}
	n := s.i - start
	return v, n > 0 && (n == 1 || s.p[start] != '0')
}

// int consumes a JSON integer without fraction or exponent that fits a
// signed integer of bits bits.
func (s *recScanner) int(bits int) bool {
	neg := s.lit("-")
	v, ok := s.uint()
	limit := uint64(1)<<(bits-1) - 1
	if neg {
		limit++
	}
	return ok && v <= limit
}

// plain consumes a string literal free of escapes and control bytes and
// returns its bytes, which are then also its decoded value, but for
// invalid UTF-8.
func (s *recScanner) plain() ([]byte, bool) {
	if !s.lit(`"`) {
		return nil, false
	}
	start := s.i
	for s.i < len(s.p) {
		switch c := s.p[s.i]; {
		case c == '"':
			s.i++
			return s.p[start : s.i-1], true
		case c < 0x20 || c == '\\':
			return nil, false
		}
		s.i++
	}
	return nil, false
}

// str consumes any valid JSON string literal.
func (s *recScanner) str() bool {
	if !s.lit(`"`) {
		return false
	}
	for s.i < len(s.p) {
		c := s.p[s.i]
		s.i++
		switch {
		case c == '"':
			return true
		case c < 0x20:
			return false
		case c == '\\':
			if s.i >= len(s.p) {
				return false
			}
			e := s.p[s.i]
			s.i++
			if strings.IndexByte(`"\/bfnrt`, e) >= 0 {
				continue
			}
			if e != 'u' || s.i+4 > len(s.p) {
				return false
			}
			for _, h := range s.p[s.i : s.i+4] {
				if !('0' <= h && h <= '9' || 'a' <= h && h <= 'f' || 'A' <= h && h <= 'F') {
					return false
				}
			}
			s.i += 4
		}
	}
	return false
}

// job consumes an object every key of which names a jobFields field,
// with a literal of that field's type for its value.
func (s *recScanner) job() bool {
	if jobFields == nil || !s.lit("{") {
		return false
	}
	if s.lit("}") {
		return true
	}
	for {
		key, ok := s.plain()
		if !ok || !s.lit(":") {
			return false
		}
		kind, ok := jobFields[string(key)]
		switch {
		case !ok:
			return false
		case kind == reflect.String:
			ok = s.str()
		case kind == reflect.Bool:
			ok = s.lit("true") || s.lit("false")
		default:
			ok = s.int(jobFieldBits[string(key)])
		}
		if !ok {
			return false
		}
		if s.lit("}") {
			return true
		}
		if !s.lit(",") {
			return false
		}
	}
}

// jobFields maps the JSON name of each jobs.Job field the scanner reads
// to its kind (jobFieldBits holds an integer's size): strings, bools
// and signed integers, plainly tagged, whose types decode no way of
// their own. A field outside it sends its frame to decodeRecord. It is
// nil, and every accept goes to decodeRecord, if jobs.Job has a shape
// this table cannot stand for: an embedded field, a decoder of its own,
// or two names one key could match (json matches keys without case).
var jobFields, jobFieldBits = jobFieldTable()

func jobFieldTable() (map[string]reflect.Kind, map[string]int) {
	t := reflect.TypeOf(jobs.Job{})
	unmarshaler := reflect.TypeOf((*json.Unmarshaler)(nil)).Elem()
	textUnmarshaler := reflect.TypeOf((*encoding.TextUnmarshaler)(nil)).Elem()
	if reflect.PointerTo(t).Implements(unmarshaler) || reflect.PointerTo(t).Implements(textUnmarshaler) {
		return nil, nil
	}
	kinds, bits := map[string]reflect.Kind{}, map[string]int{}
	folded := map[string]bool{}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Anonymous {
			return nil, nil
		}
		tag := f.Tag.Get("json")
		if !f.IsExported() || tag == "-" {
			continue
		}
		name, opts, _ := strings.Cut(tag, ",")
		if name == "" {
			name = f.Name
		}
		if folded[strings.ToLower(name)] {
			return nil, nil
		}
		folded[strings.ToLower(name)] = true
		pt := reflect.PointerTo(f.Type)
		if strings.Contains(opts, "string") || pt.Implements(unmarshaler) || pt.Implements(textUnmarshaler) {
			continue
		}
		switch k := f.Type.Kind(); k {
		case reflect.String, reflect.Bool:
			kinds[name] = k
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			kinds[name], bits[name] = k, f.Type.Bits()
		}
	}
	return kinds, bits
}

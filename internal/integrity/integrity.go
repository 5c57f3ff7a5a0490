// Package integrity provides a checksummed at-rest envelope for the
// store's content-addressed artifacts (results and checkpoints) plus a
// small interval scrubber that walks them in the background.
//
// The journal already CRC-frames every record, but the files it points
// at — results/<id>.json and checkpoints/<id>.ckpt — were written raw,
// so a flipped bit on disk silently poisoned the dedup cache. The
// envelope is a single ASCII header line followed by the original
// payload:
//
//	RVI1 <crc32c-hex> <payload-len> <spec-len>\n<payload><spec>
//
// The CRC (Castagnoli, same polynomial as the journal) covers payload
// and spec together. The optional spec section carries the JSON job
// spec that produced a result, so a scrubber that finds a corrupt
// payload but an intact spec can deterministically re-simulate — the
// content address is the oracle for which of the two rotted.
//
// Input that does not start with the magic is corrupt like any other
// failed verification: there is no unverified read path.
package integrity

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"strconv"
)

const magic = "RVI1"

// maxSection bounds each envelope section so a corrupt header cannot
// make a reader attempt a multi-gigabyte allocation.
const maxSection = 64 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CorruptError reports an envelope whose header or checksum failed
// verification. Path is filled by callers that know it.
type CorruptError struct {
	Path   string
	Reason string
}

func (e *CorruptError) Error() string {
	if e.Path == "" {
		return "integrity: corrupt envelope: " + e.Reason
	}
	return "integrity: " + e.Path + ": corrupt envelope: " + e.Reason
}

// Envelope is the parsed form of a sealed file.
type Envelope struct {
	Payload []byte
	Spec    []byte
}

// Seal wraps payload and an optional job spec in a checksummed
// envelope. The result is what should be written to disk.
func Seal(payload, spec []byte) []byte {
	sum := crc32.Checksum(payload, castagnoli)
	sum = crc32.Update(sum, castagnoli, spec)
	var buf bytes.Buffer
	buf.Grow(len(magic) + 32 + len(payload) + len(spec))
	fmt.Fprintf(&buf, "%s %08x %d %d\n", magic, sum, len(payload), len(spec))
	buf.Write(payload)
	buf.Write(spec)
	return buf.Bytes()
}

// split checks the magic and the header, and cuts the body into its
// payload and spec sections. The checksum field is returned unparsed
// and unverified.
func split(data []byte) (env Envelope, sum []byte, err error) {
	if !bytes.HasPrefix(data, []byte(magic+" ")) {
		return env, nil, &CorruptError{Reason: "missing " + magic + " magic"}
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 || nl > len(magic)+40 {
		return env, nil, &CorruptError{Reason: "unterminated header"}
	}
	fields := bytes.Fields(data[:nl])
	if len(fields) != 4 {
		return env, nil, &CorruptError{Reason: "malformed header"}
	}
	plen, err := strconv.ParseUint(string(fields[2]), 10, 63)
	if err != nil || plen > maxSection {
		return env, nil, &CorruptError{Reason: "bad payload length"}
	}
	slen, err := strconv.ParseUint(string(fields[3]), 10, 63)
	if err != nil || slen > maxSection {
		return env, nil, &CorruptError{Reason: "bad spec length"}
	}
	body := data[nl+1:]
	if uint64(len(body)) != plen+slen {
		return env, nil, &CorruptError{Reason: fmt.Sprintf(
			"body length %d, header says %d+%d", len(body), plen, slen)}
	}
	return Envelope{Payload: body[:plen:plen], Spec: body[plen:]}, fields[1], nil
}

// Open parses and verifies a sealed envelope. A missing magic prefix,
// or any header or checksum mismatch, returns a *CorruptError.
func Open(data []byte) (Envelope, error) {
	env, sumField, err := split(data)
	if err != nil {
		return Envelope{}, err
	}
	sum, err := strconv.ParseUint(string(sumField), 16, 32)
	if err != nil {
		return Envelope{}, &CorruptError{Reason: "bad checksum field"}
	}
	if crc32.Update(crc32.Checksum(env.Payload, castagnoli), castagnoli, env.Spec) != uint32(sum) {
		return Envelope{}, &CorruptError{Reason: "checksum mismatch"}
	}
	return env, nil
}

// Salvage extracts the payload and spec sections of a sealed envelope
// WITHOUT checksum verification — the scrubber's last resort on a
// corrupt file. Neither section can be trusted; callers must validate
// them independently (the job spec validates against the content
// address, which is exactly what makes re-simulation a safe repair).
func Salvage(data []byte) (payload, spec []byte, ok bool) {
	env, _, err := split(data)
	return env.Payload, env.Spec, err == nil
}

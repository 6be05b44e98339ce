// Package cluster distributes attack campaigns across machines: a
// coordinator that owns the corpus, the checkpoint sidecar and the fold
// order, and stateless workers that compute shard partials on demand.
// The protocol is stdlib HTTP/JSON in the style of internal/campaign;
// the byte-identity contract rides on internal/core's wire layer (every
// partial folds in pinned shard order through bit-exact codecs), so the
// cluster's only real job is robustness: leases, retries, breakers,
// hedging, digest framing, and graceful degradation down to a fleet of
// zero.
package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
)

// Every request and response body is wrapped in a digest frame: the JSON
// payload plus its CRC-32C. A corrupted body — bit flips, truncation,
// middleboxes — fails the digest (or the decode) and is rejected whole
// before any of its content is interpreted, so a damaged partial can
// never reach the fold. CRC-32C matches the tracestore's at-rest chunk
// checksums: the same integrity bar, in flight.
type envelope struct {
	CRC     uint32          `json:"crc"`
	Payload json.RawMessage `json:"payload"`
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errCorrupt tags frames whose digest or structure failed — the caller
// retries these (the peer computed fine; the bytes got damaged).
type errCorrupt struct{ err error }

func (e errCorrupt) Error() string { return fmt.Sprintf("cluster: corrupt frame: %v", e.err) }
func (e errCorrupt) Unwrap() error { return e.err }

// seal frames v for the wire.
func seal(v any) ([]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return json.Marshal(envelope{CRC: crc32.Checksum(payload, crcTable), Payload: payload})
}

// open reads a framed body of at most limit bytes, verifies the digest,
// and decodes the payload into v. A payload field v does not declare is
// rejected: a peer built from another commit fails loudly instead of
// having part of its request ignored.
func open(r io.Reader, limit int64, v any) error {
	data, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		mFrameRejects.Inc()
		return errCorrupt{err}
	}
	if int64(len(data)) > limit {
		return fmt.Errorf("cluster: frame exceeds the %d-byte limit", limit)
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		mFrameRejects.Inc()
		return errCorrupt{err}
	}
	if got := crc32.Checksum(env.Payload, crcTable); got != env.CRC {
		mFrameRejects.Inc()
		return errCorrupt{fmt.Errorf("digest %08x, frame claims %08x", got, env.CRC)}
	}
	dec := json.NewDecoder(bytes.NewReader(env.Payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		mFrameRejects.Inc()
		return errCorrupt{err}
	}
	return nil
}

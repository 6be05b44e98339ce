// Package tracestore is the durable data layer for EM trace campaigns:
// sharded, checksummed on-disk corpora with streaming (out-of-core)
// access and a parallel, deterministic acquisition runner.
//
// Two formats are understood (both little endian):
//
//	v1 "FDTR" — the legacy single-blob format of early falcondown:
//	  magic "FDTR" | version u32 | n u32 | count u32
//	  per observation: n/2 × (re u64, im u64) | n/2·SamplesPerCoeff × f64
//
//	v2 "FDT2" — chunked shards with per-chunk CRC-32C checksums and a
//	seekable footer index (see shard layout in writer.go). A corpus is
//	one or more v2 shard files (or a single v1 file read through the
//	compatibility path).
//
// The package never materializes a corpus: readers yield one Observation
// at a time through the Source/Iterator interfaces, so attack memory is
// bounded by a single decode chunk regardless of campaign size.
package tracestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"falcondown/internal/emleak"
	"falcondown/internal/fft"
	"falcondown/internal/fpr"
)

const (
	magicV1      = "FDTR"
	magicV2      = "FDT2"
	magicFooter  = "FDX2"
	version1     = 1
	version2     = 2
	headerSize   = 16 // magic | version | n | reserved
	chunkHdrSize = 12 // obsCount | payloadLen | crc32c
	trailerSize  = 24 // indexOffset | totalObs | indexCRC | magic

	// maxDegree/maxCount bound header fields so corrupt files cannot
	// trigger absurd allocations.
	maxDegree = 4096
	maxCount  = 1 << 24
)

// Sentinel errors; concrete failures wrap them with shard and offset
// context.
var (
	// ErrBadFormat reports a structurally malformed file.
	ErrBadFormat = errors.New("tracestore: malformed trace data")
	// ErrChecksum reports a failed integrity check: the data decoded but
	// does not match its recorded CRC.
	ErrChecksum = errors.New("tracestore: checksum mismatch")
)

// castagnoli is the CRC-32C table shared by writer and reader.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// observationSize returns the packed byte size of one observation of
// degree n.
func observationSize(n int) int {
	half := n / 2
	return half*16 + half*emleak.SamplesPerCoeff*8
}

// EstimateCorpusBytes upper-bounds the on-disk footprint of a corpus of
// count observations at degree n, including shard/chunk framing. Quota
// admission (internal/campaign) charges this bound at submission time and
// trues it up against the real directory once the campaign settles.
func EstimateCorpusBytes(n, count int) int64 {
	payload := int64(count) * int64(observationSize(n))
	// Framing overhead: a shard header/trailer, chunk headers and the
	// footer index stay far below 1% + 4 KiB for every layout the writer
	// produces.
	return payload + payload/100 + 4096
}

// validDegree reports whether n is a plausible campaign degree.
func validDegree(n int) bool { return n >= 2 && n <= maxDegree && n%2 == 0 }

// checkShape verifies an observation against the corpus degree.
func checkShape(n int, o emleak.Observation) error {
	half := n / 2
	if len(o.CFFT) != half || len(o.Trace.Samples) != half*emleak.SamplesPerCoeff {
		return fmt.Errorf("%w: observation shape (%d coefficients, %d samples) inconsistent with degree %d",
			ErrBadFormat, len(o.CFFT), len(o.Trace.Samples), n)
	}
	return nil
}

// appendObservation packs one observation onto dst with direct buffer
// stores (no reflection — this is the acquisition hot path).
func appendObservation(dst []byte, o emleak.Observation) []byte {
	need := len(o.CFFT)*16 + len(o.Trace.Samples)*8
	base := len(dst)
	dst = append(dst, make([]byte, need)...)
	b := dst[base:]
	for _, z := range o.CFFT {
		binary.LittleEndian.PutUint64(b, uint64(z.Re))
		binary.LittleEndian.PutUint64(b[8:], uint64(z.Im))
		b = b[16:]
	}
	for _, s := range o.Trace.Samples {
		binary.LittleEndian.PutUint64(b, math.Float64bits(s))
		b = b[8:]
	}
	return dst
}

// decodeInto unpacks one observation of degree n from buf, which must
// hold at least observationSize(n) bytes, into o, reusing o's slices
// where their capacity suffices.
func decodeInto(o *emleak.Observation, buf []byte, n int) {
	half := n / 2
	cf := slices.Grow(o.CFFT[:0], half)[:half]
	for k := range cf {
		cf[k] = fft.Cplx{
			Re: fpr.FPR(binary.LittleEndian.Uint64(buf)),
			Im: fpr.FPR(binary.LittleEndian.Uint64(buf[8:])),
		}
		buf = buf[16:]
	}
	samples := slices.Grow(o.Trace.Samples[:0], half*emleak.SamplesPerCoeff)[:half*emleak.SamplesPerCoeff]
	for j := range samples {
		samples[j] = math.Float64frombits(binary.LittleEndian.Uint64(buf))
		buf = buf[8:]
	}
	o.CFFT, o.Trace.Samples = cf, samples
}

package tracestore

// Test fixtures in the legacy v1 format, which Open still reads.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"falcondown/internal/emleak"
)

// WriteV1 emits the legacy "FDTR" single-blob format (byte-identical to
// the original emleak.WriteObservations, but packed with direct buffer
// stores instead of reflective binary.Write calls). Campaigns are written
// by Writer; this builds the v1 blobs the compatibility tests open.
func WriteV1(w io.Writer, n int, obs []emleak.Observation) error {
	if !validDegree(n) {
		return fmt.Errorf("%w: invalid degree %d", ErrBadFormat, n)
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	var hdr [headerSize]byte
	copy(hdr[:4], magicV1)
	binary.LittleEndian.PutUint32(hdr[4:], version1)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(n))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(obs)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	buf := make([]byte, 0, observationSize(n))
	for i, o := range obs {
		if err := checkShape(n, o); err != nil {
			return fmt.Errorf("observation %d: %w", i, err)
		}
		buf = appendObservation(buf[:0], o)
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

package tracestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"time"
)

// Degraded-mode reads. A multi-gigabyte campaign with one flipped bit
// should not abort a multi-pass attack: OpenLenient quarantines damaged
// chunks instead of failing, reports them in a CorpusHealth, and pins the
// quarantine list at open time — every Iterate over the corpus then
// sweeps the identical observation subset, which the multi-pass attack
// requires (accumulator jobs assume each pass sees the same traces in the
// same order).

// ErrTransient marks an I/O failure that is worth retrying (injected by
// fault wrappers, or plausible on networked storage). Consumers such as
// core's corpus sweeps retry Next after a bounded backoff when
// errors.Is(err, ErrTransient); the lenient reader performs the same
// bounded retries internally before declaring a chunk dead.
var ErrTransient = errors.New("tracestore: transient I/O error")

// lenientBackoff is the bounded retry schedule for chunk re-reads; a
// variable so fault-injection tests can tighten it.
var lenientBackoff = []time.Duration{2 * time.Millisecond, 10 * time.Millisecond, 50 * time.Millisecond}

// ChunkFault records one quarantined region of a corpus.
type ChunkFault struct {
	Shard        string
	Chunk        int   // chunk index within the shard; -1 for a v1 tail
	Offset       int64 // byte offset of the damaged region
	Observations int   // observations lost with it
	Reason       string
}

// ObservationFault records one observation the acquisition-time quality
// gate flagged as suspect: the bytes are in the corpus (supervised
// acquisition writes every observation so resume offsets stay stable),
// but the attack should consider masking it out.
type ObservationFault struct {
	Index  int    // observation index within the corpus
	Reason string // detector verdict ("saturated", "energy outlier", "desynced")
}

// String formats one suspect observation for CLI output.
func (f ObservationFault) String() string {
	return fmt.Sprintf("observation %d: %s", f.Index, f.Reason)
}

// CorpusHealth reports the outcome of a lenient open: which shards needed
// their footer reconstructed in memory, which chunks are quarantined, and
// how many observations survive. The quarantine list is pinned — every
// pass over the corpus skips exactly these chunks. Supervised acquisition
// reuses the type to carry its quality-gate verdicts in Suspect.
type CorpusHealth struct {
	Shards        int
	Reconstructed []string // shards opened without a valid trailer (in-memory salvage)
	Quarantined   []ChunkFault
	Suspect       []ObservationFault // written but flagged by the online quality gate
	Healthy       int                // observations readable
	Lost          int                // observations quarantined
}

// Degraded reports whether any data was lost, reconstructed, or flagged
// suspect.
func (h *CorpusHealth) Degraded() bool {
	return len(h.Quarantined) > 0 || len(h.Reconstructed) > 0 || len(h.Suspect) > 0
}

// String summarizes the health report for CLI output.
func (h *CorpusHealth) String() string {
	if !h.Degraded() {
		return fmt.Sprintf("corpus healthy: %d observations in %d shard(s)", h.Healthy, h.Shards)
	}
	s := fmt.Sprintf("corpus degraded: %d observations readable, %d lost in %d quarantined chunk(s), %d shard footer(s) reconstructed",
		h.Healthy, h.Lost, len(h.Quarantined), len(h.Reconstructed))
	if len(h.Suspect) > 0 {
		s += fmt.Sprintf(", %d observation(s) flagged suspect by the quality gate", len(h.Suspect))
	}
	return s
}

// OpenLenient resolves path exactly like Open but tolerates damage: a
// shard with a torn footer is indexed by scanning its chunks, a chunk
// whose payload fails its CRC is quarantined rather than fatal, and a
// truncated v1 blob is cut back to whole observations. Each suspect chunk
// is re-read with bounded backoff before being declared dead, so a
// transient I/O hiccup does not quarantine good data. The returned corpus
// iterates only healthy chunks, identically on every pass.
//
// Damage that leaves nothing readable (bad header, unreadable file) is
// still an error wrapping ErrBadFormat/ErrChecksum.
func OpenLenient(path string) (*Corpus, *CorpusHealth, error) {
	paths, err := resolvePaths(path)
	if err != nil {
		return nil, nil, err
	}
	return OpenFilesLenient(paths)
}

// OpenFilesLenient is OpenLenient over an explicit shard list.
func OpenFilesLenient(paths []string) (*Corpus, *CorpusHealth, error) {
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("%w: empty shard list", ErrBadFormat)
	}
	c := &Corpus{lenient: true}
	h := &CorpusHealth{Shards: len(paths)}
	for _, p := range paths {
		s, faults, reconstructed, err := openShardLenient(p)
		if err != nil {
			return nil, nil, err
		}
		if c.n == 0 {
			c.n = s.n
		} else if c.n != s.n {
			return nil, nil, fmt.Errorf("%w: shard %s has degree %d, corpus has %d",
				ErrBadFormat, p, s.n, c.n)
		}
		if reconstructed {
			h.Reconstructed = append(h.Reconstructed, p)
		}
		for _, f := range faults {
			h.Lost += f.Observations
		}
		h.Quarantined = append(h.Quarantined, faults...)
		c.count += s.count
		c.shards = append(c.shards, s)
	}
	h.Healthy = c.count
	return c, h, nil
}

// openShardLenient validates one shard, degrading instead of failing
// where the format allows it.
func openShardLenient(path string) (shardInfo, []ChunkFault, bool, error) {
	s, err := openShard(path)
	switch {
	case err == nil && s.version == version1:
		return s, nil, false, nil
	case err == nil:
		// Structurally sound; verify every chunk payload up front so the
		// quarantine list is pinned before the first attack pass.
		faults, err := verifyChunks(path, &s)
		return s, faults, false, err
	case !errors.Is(err, ErrBadFormat) && !errors.Is(err, ErrChecksum):
		return shardInfo{}, nil, false, err
	}

	// Strict open failed. Try a v1 truncation repair, then a v2 footer
	// reconstruction.
	f, ferr := os.Open(path)
	if ferr != nil {
		return shardInfo{}, nil, false, fmt.Errorf("tracestore: %w", ferr)
	}
	defer f.Close()
	st, ferr := f.Stat()
	if ferr != nil {
		return shardInfo{}, nil, false, fmt.Errorf("tracestore: shard %s: %w", path, ferr)
	}
	var hdr [headerSize]byte
	if _, ferr := f.ReadAt(hdr[:], 0); ferr != nil {
		return shardInfo{}, nil, false, fmt.Errorf("tracestore: shard %s: %w", path, err)
	}
	switch string(hdr[:4]) {
	case magicV1:
		n := int(binary.LittleEndian.Uint32(hdr[8:]))
		declared := int(int32(binary.LittleEndian.Uint32(hdr[12:])))
		if binary.LittleEndian.Uint32(hdr[4:]) != version1 || !validDegree(n) || declared < 0 || declared > maxCount {
			return shardInfo{}, nil, false, fmt.Errorf("tracestore: shard %s: %w", path, err)
		}
		// Keep the whole observations actually present (a crash-truncated
		// capture); anything past the declared count is trailing garbage
		// strict mode already rejects, so cap at declared.
		whole := int((st.Size() - headerSize) / int64(observationSize(n)))
		if whole > declared {
			whole = declared
		}
		fault := ChunkFault{
			Shard:        path,
			Chunk:        -1,
			Offset:       headerSize + int64(whole)*int64(observationSize(n)),
			Observations: declared - whole,
			Reason:       fmt.Sprintf("v1 blob holds %d of %d declared observations (truncated)", whole, declared),
		}
		s := shardInfo{path: path, version: version1, n: n, count: whole}
		if fault.Observations == 0 {
			// Trailing garbage, not truncation: quarantine zero observations
			// but still report the anomaly.
			fault.Reason = fmt.Sprintf("v1 blob carries %d trailing bytes beyond its declared payload",
				st.Size()-fault.Offset)
		}
		return s, []ChunkFault{fault}, true, nil
	case magicV2:
		// Keep going past CRC-damaged chunks, quarantining them, as long as
		// the chunk framing stays self-consistent.
		n, chunks, bad, end, serr := scanChunks(f, st.Size())
		if serr != nil {
			return shardInfo{}, nil, false, fmt.Errorf("tracestore: shard %s: %w", path, serr)
		}
		s := shardInfo{path: path, version: version2, n: n, chunks: chunks, quarantined: bad}
		var faults []ChunkFault
		for i, c := range chunks {
			if !bad[i] {
				s.count += int(c.count)
				continue
			}
			mCRCRejects.Inc()
			faults = append(faults, ChunkFault{
				Shard:        path,
				Chunk:        i,
				Offset:       c.offset,
				Observations: int(c.count),
				Reason:       "payload CRC mismatch in footer-less shard (scan recovery)",
			})
		}
		if end < st.Size() {
			faults = append(faults, ChunkFault{
				Shard:  path,
				Chunk:  len(chunks),
				Offset: end,
				Reason: fmt.Sprintf("%d trailing bytes are not chunk-framed (torn write); observations lost with them are unknown", st.Size()-end),
			})
		}
		return s, faults, true, nil
	default:
		return shardInfo{}, nil, false, fmt.Errorf("tracestore: shard %s: %w", path, err)
	}
}

// verifyChunks reads every chunk of a structurally valid v2 shard,
// quarantining the ones whose payload cannot be read back CRC-clean after
// bounded retries.
func verifyChunks(path string, s *shardInfo) ([]ChunkFault, error) {
	if s.version != version2 || len(s.chunks) == 0 {
		return nil, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	defer f.Close()
	var faults []ChunkFault
	s.quarantined = make([]bool, len(s.chunks))
	var buf []byte
	for i, meta := range s.chunks {
		buf = chunkBuffer(buf, meta)
		if err := readChunkRetry(f, buf, meta); err != nil {
			s.quarantined[i] = true
			s.count -= int(meta.count)
			faults = append(faults, ChunkFault{
				Shard:        path,
				Chunk:        i,
				Offset:       meta.offset,
				Observations: int(meta.count),
				Reason:       err.Error(),
			})
		}
	}
	return faults, nil
}

// readChunkRetry reads one chunk into buf (see readChunkAt) and verifies
// its header and CRC, retrying with bounded backoff so a transient I/O
// fault does not condemn good data.
func readChunkRetry(f *os.File, buf []byte, meta chunkMeta) error {
	var last error
	for attempt := 0; ; attempt++ {
		last = readChunkAt(f, buf, meta)
		if last == nil {
			return nil
		}
		if attempt >= len(lenientBackoff) {
			return last
		}
		time.Sleep(lenientBackoff[attempt])
	}
}

// chunkBuffer returns buf resized to hold meta's chunk header and
// payload, reallocated only when it is too small.
func chunkBuffer(buf []byte, meta chunkMeta) []byte {
	n := chunkHdrSize + int(meta.payloadLen)
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// readChunkAt reads one chunk, header and payload, into buf (sized by
// chunkBuffer) with one positioned read, and verifies the header against
// the index and the payload against its CRC.
func readChunkAt(f *os.File, buf []byte, meta chunkMeta) error {
	if n, err := f.ReadAt(buf, meta.offset); n < len(buf) {
		part := "payload"
		if n < chunkHdrSize {
			part = "header"
		}
		return fmt.Errorf("%w: chunk %s unreadable at offset %d: %v", ErrBadFormat, part, meta.offset, err)
	}
	count := binary.LittleEndian.Uint32(buf[0:])
	payloadLen := binary.LittleEndian.Uint32(buf[4:])
	crc := binary.LittleEndian.Uint32(buf[8:])
	if count != meta.count || payloadLen != meta.payloadLen {
		return fmt.Errorf("%w: chunk header (count=%d len=%d) disagrees with index (count=%d len=%d)",
			ErrBadFormat, count, payloadLen, meta.count, meta.payloadLen)
	}
	if got := crc32.Checksum(buf[chunkHdrSize:], castagnoli); got != crc {
		mCRCRejects.Inc()
		return fmt.Errorf("%w: chunk at offset %d (crc %08x, want %08x)", ErrChecksum, meta.offset, got, crc)
	}
	return nil
}

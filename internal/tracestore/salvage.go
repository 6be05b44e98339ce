package tracestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
)

// Acquisition is a long-lived physical process (the paper's campaigns are
// ~10k EM traces per component; GALACTICS-scale reruns need ~500k), so a
// crash or SIGKILL mid-campaign must not cost the whole corpus. A shard
// that dies before its footer index is written is trailer-less and Open
// rejects it; Salvage truncates such a shard back to its last CRC-valid
// chunk and rewrites a valid index + trailer, after which the corpus opens
// normally and acquisition can resume exactly where it stopped.

// SalvageReport describes what Salvage found and did to one shard file.
type SalvageReport struct {
	Path         string
	Salvaged     bool   // the file was rewritten (false: it was already valid)
	Chunks       int    // CRC-valid chunks retained
	Observations int    // observations retained
	DroppedBytes int64  // trailing bytes discarded (partial chunk, torn index)
	SHA256       string // content digest of the (possibly rewritten) shard
}

// Salvage repairs a crash-truncated v2 shard in place: it scans forward
// from the header keeping every chunk whose header is self-consistent and
// whose payload matches its CRC-32C, truncates the file at the first
// damaged byte, and writes a fresh footer index and trailer. A shard that
// already opens cleanly is left untouched. Only v2 shards are salvageable
// (v1 blobs carry no checksums to anchor a safe cut).
func Salvage(path string) (*SalvageReport, error) {
	if s, err := openShard(path); err == nil {
		if s.version != version2 {
			return nil, fmt.Errorf("tracestore: shard %s: %w: only v2 shards are salvageable", path, ErrBadFormat)
		}
		d, err := HashShard(path)
		if err != nil {
			return nil, err
		}
		return &SalvageReport{Path: path, Chunks: len(s.chunks), Observations: s.count, SHA256: d.SHA256}, nil
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("tracestore: shard %s: %w", path, err)
	}
	_, chunks, bad, end, err := scanChunks(f, st.Size())
	if err != nil {
		return nil, fmt.Errorf("tracestore: shard %s: %w", path, err)
	}
	// Keep the chunks before the first damaged one; the rest is debris.
	if i := slices.Index(bad, true); i >= 0 {
		chunks, end = chunks[:i], chunks[i].offset
	}
	rep := &SalvageReport{
		Path:         path,
		Salvaged:     true,
		Chunks:       len(chunks),
		DroppedBytes: st.Size() - end,
	}
	mShardsSalvaged.Inc()
	for _, c := range chunks {
		rep.Observations += int(c.count)
	}
	if err := f.Truncate(end); err != nil {
		return nil, fmt.Errorf("tracestore: shard %s: %w", path, err)
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		return nil, fmt.Errorf("tracestore: shard %s: %w", path, err)
	}
	idx, tr := buildIndex(chunks, end)
	if _, err := f.Write(idx); err != nil {
		return nil, fmt.Errorf("tracestore: shard %s: %w", path, err)
	}
	if _, err := f.Write(tr); err != nil {
		return nil, fmt.Errorf("tracestore: shard %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		return nil, fmt.Errorf("tracestore: shard %s: %w", path, err)
	}
	d, err := HashShard(path)
	if err != nil {
		return nil, err
	}
	rep.SHA256 = d.SHA256
	return rep, nil
}

// scanChunks walks a v2 shard forward from its header and returns every
// chunk whose header is self-consistent, with bad flagging the ones whose
// payload is unreadable or fails its CRC-32C, plus the byte offset where
// the framed chunks end. The walk stops (without error) at the first
// offset that cannot hold a chunk header: a torn write, stray index
// payload, or EOF.
func scanChunks(r io.ReaderAt, size int64) (n int, chunks []chunkMeta, bad []bool, end int64, err error) {
	var hdr [headerSize]byte
	if size < headerSize {
		return 0, nil, nil, 0, fmt.Errorf("%w: %d bytes is shorter than a shard header", ErrBadFormat, size)
	}
	if _, err := r.ReadAt(hdr[:], 0); err != nil {
		return 0, nil, nil, 0, fmt.Errorf("%w: unreadable header", ErrBadFormat)
	}
	if string(hdr[:4]) != magicV2 {
		return 0, nil, nil, 0, fmt.Errorf("%w: magic %q is not a v2 shard", ErrBadFormat, hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != version2 {
		return 0, nil, nil, 0, fmt.Errorf("%w: v2 shard with version %d", ErrBadFormat, v)
	}
	n = int(binary.LittleEndian.Uint32(hdr[8:]))
	if !validDegree(n) {
		return 0, nil, nil, 0, fmt.Errorf("%w: implausible degree %d", ErrBadFormat, n)
	}
	obsSize := int64(observationSize(n))
	offset := int64(headerSize)
	payload := []byte(nil)
	for {
		var ch [chunkHdrSize]byte
		if offset+chunkHdrSize > size {
			break
		}
		if _, err := r.ReadAt(ch[:], offset); err != nil {
			break
		}
		count := int64(binary.LittleEndian.Uint32(ch[0:]))
		payloadLen := int64(binary.LittleEndian.Uint32(ch[4:]))
		crc := binary.LittleEndian.Uint32(ch[8:])
		// A chunk header must be self-consistent; the index payload that a
		// crash may have half-written fails this test and ends the scan.
		if count <= 0 || count > maxCount || payloadLen != count*obsSize ||
			offset+chunkHdrSize+payloadLen > size {
			break
		}
		if int64(cap(payload)) < payloadLen {
			payload = make([]byte, payloadLen)
		}
		payload = payload[:payloadLen]
		_, rerr := r.ReadAt(payload, offset+chunkHdrSize)
		chunks = append(chunks, chunkMeta{offset: offset, count: uint32(count), payloadLen: uint32(payloadLen)})
		bad = append(bad, rerr != nil || crc32.Checksum(payload, castagnoli) != crc)
		offset += chunkHdrSize + payloadLen
	}
	return n, chunks, bad, offset, nil
}

// buildIndex serializes the footer index payload and trailer for the given
// chunk set ending at indexOffset (shared by Writer.finishShard and
// Salvage so both emit bit-identical metadata).
func buildIndex(chunks []chunkMeta, indexOffset int64) (idx []byte, trailer []byte) {
	idx = make([]byte, 4+len(chunks)*16)
	binary.LittleEndian.PutUint32(idx, uint32(len(chunks)))
	var obs int64
	for i, c := range chunks {
		e := idx[4+i*16:]
		binary.LittleEndian.PutUint64(e, uint64(c.offset))
		binary.LittleEndian.PutUint32(e[8:], c.count)
		binary.LittleEndian.PutUint32(e[12:], c.payloadLen)
		obs += int64(c.count)
	}
	trailer = make([]byte, trailerSize)
	binary.LittleEndian.PutUint64(trailer[0:], uint64(indexOffset))
	binary.LittleEndian.PutUint64(trailer[8:], uint64(obs))
	binary.LittleEndian.PutUint32(trailer[16:], crc32.Checksum(idx, castagnoli))
	copy(trailer[20:], magicFooter)
	return idx, trailer
}

// ResumeWriter reopens an interrupted campaign at path for appending. It
// enumerates the shard files the given options would have produced,
// salvages the last one if it is trailer-less (a SIGKILL mid-write),
// strips its footer so appending continues at the last committed chunk,
// and returns the number of observations already durable. Passing a path
// with no existing files degrades to NewWriter with done = 0.
//
// Resume preserves the byte-identity guarantee of deterministic
// acquisition: chunk and shard boundaries depend only on (n, Options), so
// a salvaged corpus continued with the same options — and observations
// regenerated from the same (seed, index) schedule — is byte-identical to
// an uninterrupted run (tested).
func ResumeWriter(path string, n int, opts Options) (*Writer, int, error) {
	if !validDegree(n) {
		return nil, 0, fmt.Errorf("%w: invalid degree %d", ErrBadFormat, n)
	}
	probe := &Writer{path: path, opts: opts}
	var paths []string
	if opts.ShardObs <= 0 {
		if _, err := os.Stat(path); err == nil {
			paths = []string{path}
		}
	} else {
		for i := 0; ; i++ {
			p := probe.shardPath(i)
			if _, err := os.Stat(p); err != nil {
				break
			}
			paths = append(paths, p)
		}
	}
	if len(paths) == 0 {
		w, err := NewWriter(path, n, opts)
		return w, 0, err
	}

	// Every shard but the last must already be complete; the last may need
	// salvage. Deeper damage is corruption, not interruption — refuse it.
	var done int
	var bytes int64
	var priorDigests []ShardDigest
	for i, p := range paths[:len(paths)-1] {
		s, err := openShard(p)
		if err != nil {
			return nil, 0, fmt.Errorf("tracestore: resume: completed shard %d is damaged (salvage only repairs the final shard): %w", i, err)
		}
		if s.n != n {
			return nil, 0, fmt.Errorf("%w: resume: shard %s has degree %d, campaign has %d", ErrBadFormat, p, s.n, n)
		}
		done += s.count
		if st, err := os.Stat(p); err == nil {
			bytes += st.Size()
		}
		// Carry the completed shards' content digests forward so the
		// resumed writer's Manifest covers the whole campaign.
		d, err := HashShard(p)
		if err != nil {
			return nil, 0, fmt.Errorf("tracestore: resume: %w", err)
		}
		d.Obs = s.count
		priorDigests = append(priorDigests, d)
	}
	last := paths[len(paths)-1]
	s, err := openShard(last)
	if err != nil {
		if !errors.Is(err, ErrBadFormat) && !errors.Is(err, ErrChecksum) {
			return nil, 0, err
		}
		if _, err := Salvage(last); err != nil {
			// A final shard shorter than its own header holds zero durable
			// observations: the crash landed before the writer's first
			// buffer flush (os.Create ran, the 1 MiB buffered header and
			// chunks never reached the kernel). Dropping it loses nothing —
			// resume continues from the prior shards, or from scratch.
			if st, sterr := os.Stat(last); sterr == nil && st.Size() < headerSize {
				if rerr := os.Remove(last); rerr != nil {
					return nil, 0, fmt.Errorf("tracestore: resume: %w", rerr)
				}
				return ResumeWriter(path, n, opts)
			}
			return nil, 0, fmt.Errorf("tracestore: resume: %w", err)
		}
		if s, err = openShard(last); err != nil {
			return nil, 0, fmt.Errorf("tracestore: resume: shard unreadable after salvage: %w", err)
		}
	}
	if s.version != version2 {
		return nil, 0, fmt.Errorf("%w: resume: %s is a v1 blob; v1 campaigns cannot be resumed", ErrBadFormat, last)
	}
	if s.n != n {
		return nil, 0, fmt.Errorf("%w: resume: shard %s has degree %d, campaign has %d", ErrBadFormat, last, s.n, n)
	}
	done += s.count

	// Reopen the final shard for append: drop its index + trailer and seat
	// the writer at the end of the last committed chunk.
	indexOffset := int64(headerSize)
	if len(s.chunks) > 0 {
		c := s.chunks[len(s.chunks)-1]
		indexOffset = c.offset + chunkHdrSize + int64(c.payloadLen)
	}
	w, err := reopenForAppend(path, n, opts, paths, s.chunks, indexOffset)
	if err != nil {
		return nil, 0, err
	}
	w.digests = priorDigests
	w.total = int64(done)
	w.bytes = bytes + indexOffset
	return w, done, nil
}

package tracestore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"falcondown/internal/emleak"
)

// shardInfo is the validated metadata of one corpus file.
type shardInfo struct {
	path    string
	version int
	n       int
	count   int         // readable observations (excludes quarantined chunks)
	chunks  []chunkMeta // v2 only
	// quarantined flags chunks a lenient open found damaged; iterators
	// skip them. nil for strictly opened shards.
	quarantined []bool
}

// isQuarantined reports whether chunk i is excluded from reads.
func (s *shardInfo) isQuarantined(i int) bool {
	return s.quarantined != nil && s.quarantined[i]
}

// Corpus is a read-only, sharded trace campaign on disk. It implements
// Source; every Iterate opens its own file handles, so concurrent passes
// are independent.
type Corpus struct {
	n      int
	count  int
	shards []shardInfo
	// lenient corpora (OpenLenient) skip quarantined chunks and re-read
	// transiently failing chunks with bounded backoff; the quarantine
	// list is pinned at open, so every pass sees the same subset.
	lenient bool

	// Content manifest, hashed lazily on first Manifest() call and pinned
	// for the corpus lifetime (see manifest.go).
	manifestMu  sync.Mutex
	manifest    *Manifest
	manifestErr error
}

// N implements Source.
func (c *Corpus) N() int { return c.n }

// Count implements Source.
func (c *Corpus) Count() int { return c.count }

// Shards returns the number of files backing the corpus.
func (c *Corpus) Shards() int { return len(c.shards) }

// Paths returns the shard files in read order.
func (c *Corpus) Paths() []string {
	out := make([]string, len(c.shards))
	for i, s := range c.shards {
		out[i] = s.path
	}
	return out
}

// Open resolves path into a corpus:
//
//   - a directory reads every *.fdt2/*.fdtr file in it (sorted);
//   - a glob pattern reads its matches;
//   - an existing file is sniffed as a v2 shard or a legacy v1 blob;
//   - otherwise the sharded spelling of path (base-*.ext) is globbed, so
//     the same -out value round-trips between tracegen and attack.
func Open(path string) (*Corpus, error) {
	paths, err := resolvePaths(path)
	if err != nil {
		return nil, err
	}
	return OpenFiles(paths)
}

// resolvePaths expands a corpus spelling (file, directory, glob, or
// sharded -out value) into an ordered shard list.
func resolvePaths(path string) ([]string, error) {
	if st, err := os.Stat(path); err == nil {
		if !st.IsDir() {
			return []string{path}, nil
		}
		var paths []string
		for _, pat := range []string{"*.fdt2", "*.fdtr"} {
			m, err := filepath.Glob(filepath.Join(path, pat))
			if err != nil {
				return nil, fmt.Errorf("tracestore: %w", err)
			}
			paths = append(paths, m...)
		}
		sort.Strings(paths)
		if len(paths) == 0 {
			return nil, fmt.Errorf("%w: no shard files in directory %s", ErrBadFormat, path)
		}
		return paths, nil
	}
	pattern := path
	if !strings.ContainsAny(pattern, "*?[") {
		ext := filepath.Ext(path)
		pattern = path[:len(path)-len(ext)] + "-*" + ext
	}
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return nil, fmt.Errorf("tracestore: no corpus at %s (also tried %s)", path, pattern)
	}
	return paths, nil
}

// OpenFiles validates the given shard files (in order) as one corpus.
func OpenFiles(paths []string) (*Corpus, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("%w: empty shard list", ErrBadFormat)
	}
	c := &Corpus{}
	for _, p := range paths {
		s, err := openShard(p)
		if err != nil {
			return nil, err
		}
		if c.n == 0 {
			c.n = s.n
		} else if c.n != s.n {
			return nil, fmt.Errorf("%w: shard %s has degree %d, corpus has %d",
				ErrBadFormat, p, s.n, c.n)
		}
		c.count += s.count
		c.shards = append(c.shards, s)
	}
	return c, nil
}

// openShard validates one file's header and (for v2) footer index without
// reading the payload.
func openShard(path string) (shardInfo, error) {
	fail := func(err error) (shardInfo, error) {
		return shardInfo{}, fmt.Errorf("tracestore: shard %s: %w", path, err)
	}
	f, err := os.Open(path)
	if err != nil {
		return shardInfo{}, fmt.Errorf("tracestore: %w", err)
	}
	defer f.Close()
	var hdr [headerSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return fail(fmt.Errorf("%w: short header", ErrBadFormat))
	}
	switch string(hdr[:4]) {
	case magicV1:
		version := binary.LittleEndian.Uint32(hdr[4:])
		n := int(binary.LittleEndian.Uint32(hdr[8:]))
		count := int(int32(binary.LittleEndian.Uint32(hdr[12:])))
		if version != version1 {
			return fail(fmt.Errorf("%w: v1 blob with version %d", ErrBadFormat, version))
		}
		if !validDegree(n) || count < 0 || count > maxCount {
			return fail(fmt.Errorf("%w: implausible header (n=%d count=%d)", ErrBadFormat, n, count))
		}
		st, err := f.Stat()
		if err != nil {
			return fail(err)
		}
		want := int64(headerSize) + int64(count)*int64(observationSize(n))
		if st.Size() != want {
			return fail(fmt.Errorf("%w: v1 blob is %d bytes, header implies %d (truncated or trailing garbage)",
				ErrBadFormat, st.Size(), want))
		}
		return shardInfo{path: path, version: version1, n: n, count: count}, nil
	case magicV2:
		version := binary.LittleEndian.Uint32(hdr[4:])
		n := int(binary.LittleEndian.Uint32(hdr[8:]))
		if version != version2 {
			return fail(fmt.Errorf("%w: v2 shard with version %d", ErrBadFormat, version))
		}
		if !validDegree(n) {
			return fail(fmt.Errorf("%w: implausible degree %d", ErrBadFormat, n))
		}
		st, err := f.Stat()
		if err != nil {
			return fail(err)
		}
		if st.Size() < headerSize+trailerSize {
			return fail(fmt.Errorf("%w: %d bytes is too short for a shard (truncated)", ErrBadFormat, st.Size()))
		}
		var tr [trailerSize]byte
		if _, err := f.ReadAt(tr[:], st.Size()-trailerSize); err != nil {
			return fail(fmt.Errorf("%w: unreadable trailer", ErrBadFormat))
		}
		if string(tr[20:24]) != magicFooter {
			return fail(fmt.Errorf("%w: footer magic missing (truncated shard)", ErrBadFormat))
		}
		indexOffset := int64(binary.LittleEndian.Uint64(tr[0:]))
		totalObs := int64(binary.LittleEndian.Uint64(tr[8:]))
		indexCRC := binary.LittleEndian.Uint32(tr[16:])
		indexLen := st.Size() - trailerSize - indexOffset
		if indexOffset < headerSize || indexLen < 4 || totalObs < 0 || totalObs > maxCount {
			return fail(fmt.Errorf("%w: implausible trailer (indexOffset=%d totalObs=%d)",
				ErrBadFormat, indexOffset, totalObs))
		}
		idx := make([]byte, indexLen)
		if _, err := f.ReadAt(idx, indexOffset); err != nil {
			return fail(fmt.Errorf("%w: unreadable index", ErrBadFormat))
		}
		if crc32.Checksum(idx, castagnoli) != indexCRC {
			return fail(fmt.Errorf("%w: footer index at offset %d", ErrChecksum, indexOffset))
		}
		chunkCount := int(binary.LittleEndian.Uint32(idx))
		if int64(4+chunkCount*16) != indexLen {
			return fail(fmt.Errorf("%w: index declares %d chunks in %d bytes", ErrBadFormat, chunkCount, indexLen))
		}
		chunks := make([]chunkMeta, chunkCount)
		var sum int64
		next := int64(headerSize)
		for i := range chunks {
			e := idx[4+i*16:]
			chunks[i] = chunkMeta{
				offset:     int64(binary.LittleEndian.Uint64(e)),
				count:      binary.LittleEndian.Uint32(e[8:]),
				payloadLen: binary.LittleEndian.Uint32(e[12:]),
			}
			if chunks[i].offset != next ||
				int64(chunks[i].payloadLen) != int64(chunks[i].count)*int64(observationSize(n)) {
				return fail(fmt.Errorf("%w: chunk %d index entry inconsistent (offset %d, want %d)",
					ErrBadFormat, i, chunks[i].offset, next))
			}
			next += chunkHdrSize + int64(chunks[i].payloadLen)
			sum += int64(chunks[i].count)
		}
		if next != indexOffset || sum != totalObs {
			return fail(fmt.Errorf("%w: index covers %d observations ending at %d, trailer says %d ending at %d",
				ErrBadFormat, sum, next, totalObs, indexOffset))
		}
		return shardInfo{path: path, version: version2, n: n, count: int(totalObs), chunks: chunks}, nil
	default:
		return fail(fmt.Errorf("%w: unknown magic %q", ErrBadFormat, hdr[:4]))
	}
}

// Iterate implements Source.
func (c *Corpus) Iterate() (Iterator, error) { return c.IterateFrom(0) }

// IterateFrom implements Seeker: the pass opens the file holding
// observation start and reads from the chunk holding it, through the
// footer index, so no earlier chunk is read or decoded.
func (c *Corpus) IterateFrom(start int) (Iterator, error) {
	it := &corpusIterator{corpus: c}
	for it.shard < len(c.shards) && start >= c.shards[it.shard].count {
		start -= c.shards[it.shard].count
		it.shard++
	}
	it.skip = max(start, 0)
	return it, nil
}

// corpusIterator streams shards sequentially, verifying each chunk's CRC
// before yielding its observations.
type corpusIterator struct {
	corpus *Corpus
	shard  int
	f      *os.File
	// skip counts the observations of the next shard to open that the
	// pass starts after (IterateFrom).
	skip int

	// v2 state
	chunkIdx int
	buf      []byte // current verified chunk, header and payload
	bufPos   int
	bufSkip  int // observations of the next chunk read to skip
	// v1 state
	br        *bufio.Reader
	remaining int
	offset    int64
	v1buf     []byte
}

func (it *corpusIterator) Next() (emleak.Observation, error) {
	var o emleak.Observation
	err := it.nextInto(&o)
	return o, err
}

// nextInto is Next decoding into o, reusing o's slices: ForEachBatch's
// path, whose batches the consumer may not keep.
func (it *corpusIterator) nextInto(o *emleak.Observation) error {
	for {
		if it.f == nil {
			if it.shard >= len(it.corpus.shards) {
				return io.EOF
			}
			if err := it.openShard(); err != nil {
				return err
			}
		}
		s := &it.corpus.shards[it.shard]
		if s.version == version1 {
			if it.remaining == 0 {
				it.closeShard()
				continue
			}
			if _, err := io.ReadFull(it.br, it.v1buf); err != nil {
				return fmt.Errorf(
					"tracestore: shard %s: %w: observation truncated at offset %d",
					s.path, ErrBadFormat, it.offset)
			}
			it.remaining--
			it.offset += int64(len(it.v1buf))
			decodeInto(o, it.v1buf, s.n)
			return nil
		}
		// v2: refill the chunk buffer when drained, skipping chunks the
		// lenient open quarantined (the list is pinned, so every pass
		// over the corpus skips the same ones).
		if it.bufPos >= len(it.buf) {
			for it.chunkIdx < len(s.chunks) && s.isQuarantined(it.chunkIdx) {
				it.chunkIdx++
			}
			if it.chunkIdx >= len(s.chunks) {
				it.closeShard()
				continue
			}
			if err := it.readChunk(s); err != nil {
				return err
			}
			continue
		}
		decodeInto(o, it.buf[it.bufPos:], s.n)
		it.bufPos += observationSize(s.n)
		return nil
	}
}

// openShard opens the current shard at its it.skip-th readable
// observation.
func (it *corpusIterator) openShard() error {
	s := &it.corpus.shards[it.shard]
	f, err := os.Open(s.path)
	if err != nil {
		return fmt.Errorf("tracestore: %w", err)
	}
	it.f = f
	skip := it.skip
	it.skip = 0
	it.chunkIdx = 0
	it.buf = it.buf[:0]
	it.bufPos = 0
	it.bufSkip = 0
	if s.version == version2 {
		// Start at the readable chunk holding the skip-th observation.
		for ; it.chunkIdx < len(s.chunks); it.chunkIdx++ {
			if s.isQuarantined(it.chunkIdx) {
				continue
			}
			c := int(s.chunks[it.chunkIdx].count)
			if skip < c {
				break
			}
			skip -= c
		}
		it.bufSkip = skip
		return nil
	}
	it.remaining = s.count - skip
	it.offset = headerSize + int64(skip)*int64(observationSize(s.n))
	if _, err := f.Seek(it.offset, io.SeekStart); err != nil {
		it.closeShard()
		return fmt.Errorf("tracestore: shard %s: %w", s.path, err)
	}
	it.br = bufio.NewReaderSize(f, 1<<20)
	it.v1buf = make([]byte, observationSize(s.n))
	return nil
}

// readChunk loads and verifies the next chunk of the current v2 shard
// through positioned reads: the index pins every offset, so a pass holds
// no read buffer beyond the chunk and can start at any chunk. In lenient
// mode a failed read is retried with bounded backoff before the chunk is
// declared dead.
func (it *corpusIterator) readChunk(s *shardInfo) error {
	meta := s.chunks[it.chunkIdx]
	it.buf = chunkBuffer(it.buf, meta)
	read := readChunkAt
	if it.corpus.lenient {
		read = readChunkRetry
	}
	if err := read(it.f, it.buf, meta); err != nil {
		return fmt.Errorf("tracestore: shard %s: chunk %d: %w", s.path, it.chunkIdx, err)
	}
	mChunksDecoded.Inc()
	mBytesDecoded.Add(int64(len(it.buf)))
	it.chunkIdx++
	it.bufPos = chunkHdrSize + it.bufSkip*observationSize(s.n)
	it.bufSkip = 0
	return nil
}

func (it *corpusIterator) closeShard() {
	if it.f != nil {
		it.f.Close()
		it.f = nil
		it.br = nil
	}
	it.shard++
	it.buf = it.buf[:0]
	it.bufPos = 0
}

func (it *corpusIterator) Close() error {
	if it.f != nil {
		err := it.f.Close()
		it.f = nil
		it.br = nil
		return err
	}
	return nil
}

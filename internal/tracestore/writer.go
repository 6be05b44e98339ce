package tracestore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"falcondown/internal/emleak"
)

// Shard layout (v2, little endian):
//
//	header (16 B):  magic "FDT2" | version u32 | n u32 | reserved u32
//	chunks:         repeated  obsCount u32 | payloadLen u32 | crc32c u32 | payload
//	index payload:  chunkCount u32 | per chunk { offset u64, obsCount u32, payloadLen u32 }
//	trailer (24 B): indexOffset u64 | totalObs u64 | crc32c(index) u32 | magic "FDX2"
//
// Invariants: chunk offsets are strictly increasing and contiguous from
// the header; the trailer's totalObs equals the sum of chunk counts; a
// shard without a valid trailer is treated as truncated and rejected.

// defaultChunkBytes targets ~256 KiB decode chunks: large enough to
// amortize syscalls and CRC setup, small enough that a streaming reader's
// working set stays negligible.
const defaultChunkBytes = 256 << 10

// Options tunes a Writer.
type Options struct {
	// ShardObs caps observations per shard file; 0 writes one unsharded
	// file at the exact output path.
	ShardObs int
	// ChunkObs sets observations per checksummed chunk; 0 picks a size
	// targeting ~256 KiB chunks.
	ChunkObs int
	// OnShard, when set, is called after each shard file is finalized.
	OnShard func(path string, observations int, bytes int64)
	// OnProgress, when set, is called after every chunk flush with
	// cumulative campaign statistics.
	OnProgress func(Stats)
}

// Stats reports cumulative acquisition/serialization throughput.
type Stats struct {
	Observations int64
	Bytes        int64
	Shards       int
	Elapsed      time.Duration
}

// chunkMeta is one index entry.
type chunkMeta struct {
	offset     int64
	count      uint32
	payloadLen uint32
}

// Writer streams a campaign into one or more v2 shard files. It is not
// safe for concurrent use; parallel acquisition funnels through a single
// collector goroutine (see Acquire).
type Writer struct {
	path     string
	n        int
	obsSize  int
	chunkObs int
	opts     Options

	f        *os.File
	bw       *bufio.Writer
	offset   int64
	chunk    []byte
	chunkCnt int
	chunks   []chunkMeta
	shardCnt int

	paths   []string
	digests []ShardDigest // one per finalized shard, in order
	total   int64
	bytes   int64
	start   time.Time
}

// NewWriter creates a writer for a degree-n campaign rooted at path. With
// Options.ShardObs > 0, shard files are derived from path by inserting a
// zero-padded shard number before the extension (traces.fdt2 →
// traces-00000.fdt2, traces-00001.fdt2, …).
func NewWriter(path string, n int, opts Options) (*Writer, error) {
	if !validDegree(n) {
		return nil, fmt.Errorf("%w: invalid degree %d", ErrBadFormat, n)
	}
	w := &Writer{
		path:    path,
		n:       n,
		obsSize: observationSize(n),
		opts:    opts,
		start:   time.Now(),
	}
	w.chunkObs = opts.ChunkObs
	if w.chunkObs <= 0 {
		w.chunkObs = defaultChunkBytes / w.obsSize
		if w.chunkObs < 1 {
			w.chunkObs = 1
		}
	}
	if err := w.openShard(); err != nil {
		return nil, err
	}
	return w, nil
}

// shardPath returns the file name of shard i.
func (w *Writer) shardPath(i int) string {
	if w.opts.ShardObs <= 0 {
		return w.path
	}
	ext := filepath.Ext(w.path)
	base := w.path[:len(w.path)-len(ext)]
	if ext == "" {
		ext = ".fdt2"
	}
	return fmt.Sprintf("%s-%05d%s", base, i, ext)
}

func (w *Writer) openShard() error {
	path := w.shardPath(w.shardCnt)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("tracestore: shard %s: %w", path, err)
	}
	w.f = f
	w.bw = bufio.NewWriterSize(f, 1<<20)
	w.paths = append(w.paths, path)
	w.chunks = w.chunks[:0]
	w.chunk = w.chunk[:0]
	w.chunkCnt = 0
	var hdr [headerSize]byte
	copy(hdr[:4], magicV2)
	binary.LittleEndian.PutUint32(hdr[4:], version2)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(w.n))
	if _, err := w.bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("tracestore: shard %s: %w", path, err)
	}
	w.offset = headerSize
	w.bytes += headerSize
	return nil
}

// shardObs returns the observations already committed to the open shard.
func (w *Writer) shardObs() int {
	obs := w.chunkCnt
	for _, c := range w.chunks {
		obs += int(c.count)
	}
	return obs
}

// Append packs one observation into the current chunk, flushing chunks
// and rolling shards as their limits fill.
func (w *Writer) Append(o emleak.Observation) error {
	if w.f == nil {
		return fmt.Errorf("%w: writer is closed", ErrBadFormat)
	}
	if err := checkShape(w.n, o); err != nil {
		return err
	}
	if w.opts.ShardObs > 0 && w.shardObs() >= w.opts.ShardObs {
		if err := w.finishShard(); err != nil {
			return err
		}
		w.shardCnt++
		if err := w.openShard(); err != nil {
			return err
		}
	}
	w.chunk = appendObservation(w.chunk, o)
	w.chunkCnt++
	w.total++
	if w.chunkCnt >= w.chunkObs {
		return w.flushChunk()
	}
	return nil
}

func (w *Writer) flushChunk() error {
	if w.chunkCnt == 0 {
		return nil
	}
	var hdr [chunkHdrSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(w.chunkCnt))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(w.chunk)))
	binary.LittleEndian.PutUint32(hdr[8:], crc32.Checksum(w.chunk, castagnoli))
	if _, err := w.bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("tracestore: shard %s: %w", w.paths[len(w.paths)-1], err)
	}
	if _, err := w.bw.Write(w.chunk); err != nil {
		return fmt.Errorf("tracestore: shard %s: %w", w.paths[len(w.paths)-1], err)
	}
	w.chunks = append(w.chunks, chunkMeta{
		offset:     w.offset,
		count:      uint32(w.chunkCnt),
		payloadLen: uint32(len(w.chunk)),
	})
	written := int64(chunkHdrSize + len(w.chunk))
	w.offset += written
	w.bytes += written
	mBytesWritten.Add(written)
	w.chunk = w.chunk[:0]
	w.chunkCnt = 0
	if w.opts.OnProgress != nil {
		w.opts.OnProgress(w.Stats())
	}
	return nil
}

func (w *Writer) finishShard() error {
	if err := w.flushChunk(); err != nil {
		return err
	}
	path := w.paths[len(w.paths)-1]
	idx, tr := buildIndex(w.chunks, w.offset)
	var obs int64
	for _, c := range w.chunks {
		obs += int64(c.count)
	}
	if _, err := w.bw.Write(idx); err != nil {
		return fmt.Errorf("tracestore: shard %s: %w", path, err)
	}
	if _, err := w.bw.Write(tr); err != nil {
		return fmt.Errorf("tracestore: shard %s: %w", path, err)
	}
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("tracestore: shard %s: %w", path, err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("tracestore: shard %s: %w", path, err)
	}
	w.bytes += int64(len(idx) + trailerSize)
	w.f = nil
	w.bw = nil
	// Digest the finalized file so the campaign's content manifest is
	// known at write time. Re-reading (rather than hashing inline) keeps
	// resumed shards — whose prefix predates this writer — on the same
	// code path as fresh ones.
	d, err := HashShard(path)
	if err != nil {
		return err
	}
	d.Obs = int(obs)
	w.digests = append(w.digests, d)
	mShardsWritten.Inc()
	if w.opts.OnShard != nil {
		w.opts.OnShard(path, int(obs), w.offset+int64(len(idx)+trailerSize))
	}
	return nil
}

// Close finalizes the open shard (flushing the partial chunk and writing
// the footer index). The writer is unusable afterwards.
func (w *Writer) Close() error {
	if w.f == nil {
		return nil
	}
	return w.finishShard()
}

// Interrupt finalizes the corpus at the last fully committed chunk,
// discarding the partially filled in-memory chunk, and returns the number
// of observations durable on disk. Unlike Close it keeps chunk boundaries
// on their deterministic (n, Options) grid, so a campaign continued with
// ResumeWriter from this point is byte-identical to an uninterrupted run.
// The writer is unusable afterwards.
func (w *Writer) Interrupt() (int64, error) {
	if w.f == nil {
		return w.total, nil
	}
	w.total -= int64(w.chunkCnt)
	w.chunk = w.chunk[:0]
	w.chunkCnt = 0
	if err := w.finishShard(); err != nil {
		return w.total, err
	}
	return w.total, nil
}

// reopenForAppend seats a writer on an existing shard file: the footer is
// truncated away and subsequent chunks append after the last committed
// one. Used by ResumeWriter; the writer's cumulative counters are restored
// by the caller.
func reopenForAppend(path string, n int, opts Options, paths []string, chunks []chunkMeta, indexOffset int64) (*Writer, error) {
	w := &Writer{
		path:    path,
		n:       n,
		obsSize: observationSize(n),
		opts:    opts,
		start:   time.Now(),
	}
	w.chunkObs = opts.ChunkObs
	if w.chunkObs <= 0 {
		w.chunkObs = defaultChunkBytes / w.obsSize
		if w.chunkObs < 1 {
			w.chunkObs = 1
		}
	}
	last := paths[len(paths)-1]
	f, err := os.OpenFile(last, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("tracestore: shard %s: %w", last, err)
	}
	if err := f.Truncate(indexOffset); err != nil {
		f.Close()
		return nil, fmt.Errorf("tracestore: shard %s: %w", last, err)
	}
	if _, err := f.Seek(indexOffset, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("tracestore: shard %s: %w", last, err)
	}
	w.f = f
	w.bw = bufio.NewWriterSize(f, 1<<20)
	w.offset = indexOffset
	w.chunks = append(w.chunks[:0], chunks...)
	w.shardCnt = len(paths) - 1
	w.paths = append([]string(nil), paths...)
	return w, nil
}

// Stats returns cumulative statistics.
func (w *Writer) Stats() Stats {
	return Stats{
		Observations: w.total,
		Bytes:        w.bytes,
		Shards:       len(w.paths),
		Elapsed:      time.Since(w.start),
	}
}

// Paths returns the shard files written so far.
func (w *Writer) Paths() []string {
	return append([]string(nil), w.paths...)
}

// Partition file format v2.
//
// A partition file is
//
//	Header  Block*  Trailer
//
// Header (24 bytes):
//
//	magic   [4]byte  "GPLP"
//	version uint16   2
//	hsize   uint16   24
//	lo      uint32   vertex interval low  (0 when unknown)
//	hi      uint32   vertex interval high (0 when unknown)
//	reserved uint32  0
//	crc     uint32   IEEE CRC32 of the 20 bytes above
//
// Block (12-byte header + payload):
//
//	plen    uint32   payload length in bytes
//	count   uint32   record count in the payload
//	crc     uint32   IEEE CRC32 of the payload
//	payload          count v2 records, back to back
//
// Trailer (20 bytes):
//
//	magic   [4]byte  "GPLT"
//	edges   uint64   total record count
//	blocks  uint32   block count
//	crc     uint32   IEEE CRC32 of the 16 bytes above
//
// The trailer doubles as a commit record for appends: a reader requires a
// valid trailer whose edge and block counts match what it decoded, so a
// torn append (or any truncation) is detected instead of misparsed. Whole-
// file writes are additionally crash-safe: write temp → fsync file → rename
// → fsync directory, so a crash never leaves a half-written file under the
// partition's name.
//
// This is the only partition format: a file that does not start with a
// valid header, a zero-byte file included, is corrupt. Partitions are
// per-run scratch (the run journal's tag rejects another run's directory),
// so no reader ever meets a file written in an older format.
package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// FormatVersion is the current partition file format.
const FormatVersion = 2

const (
	headerSize      = 24
	trailerSize     = 20
	blockHeaderSize = 12
	// targetBlockSize bounds a block's payload; one CRC is computed (and
	// verified) per block, so blocks localize corruption without per-record
	// overhead.
	targetBlockSize = 256 << 10
	// maxBlockPayload rejects absurd block lengths before allocation. Records
	// are well under 1 KiB, so a block never legitimately exceeds the target
	// by more than one record.
	maxBlockPayload = targetBlockSize + (1 << 20)
)

var (
	fileMagic    = [4]byte{'G', 'P', 'L', 'P'}
	trailerMagic = [4]byte{'G', 'P', 'L', 'T'}
)

// ErrCorrupt tags every integrity failure ReadPart and AppendPart can
// detect (bad magic/version, checksum mismatch, truncation, torn append).
// Errors wrap it, so errors.Is(err, ErrCorrupt) distinguishes corruption
// from plain I/O failures.
var ErrCorrupt = errors.New("corrupt partition file")

func corruptf(path, format string, args ...any) error {
	return fmt.Errorf("storage: %s: %w: %s", path, ErrCorrupt, fmt.Sprintf(format, args...))
}

// PartInfo is the partition metadata a v2 header records.
type PartInfo struct {
	// Lo, Hi is the partition's vertex interval [Lo, Hi); both zero when the
	// writer did not know it (a file AppendPart created).
	Lo, Hi uint32
}

func encodeHeader(info PartInfo) []byte {
	buf := make([]byte, headerSize)
	copy(buf, fileMagic[:])
	binary.LittleEndian.PutUint16(buf[4:], FormatVersion)
	binary.LittleEndian.PutUint16(buf[6:], headerSize)
	binary.LittleEndian.PutUint32(buf[8:], info.Lo)
	binary.LittleEndian.PutUint32(buf[12:], info.Hi)
	binary.LittleEndian.PutUint32(buf[16:], 0)
	binary.LittleEndian.PutUint32(buf[20:], crc32.ChecksumIEEE(buf[:20]))
	return buf
}

func decodeHeader(path string, buf []byte) (PartInfo, error) {
	if len(buf) < headerSize {
		return PartInfo{}, corruptf(path, "short header: %d bytes", len(buf))
	}
	if !bytes.Equal(buf[:4], fileMagic[:]) {
		return PartInfo{}, corruptf(path, "bad magic %q", buf[:4])
	}
	if got := crc32.ChecksumIEEE(buf[:20]); got != binary.LittleEndian.Uint32(buf[20:]) {
		return PartInfo{}, corruptf(path, "header checksum mismatch")
	}
	if v := binary.LittleEndian.Uint16(buf[4:]); v != FormatVersion {
		return PartInfo{}, corruptf(path, "unsupported format version %d (want %d)", v, FormatVersion)
	}
	if hs := binary.LittleEndian.Uint16(buf[6:]); hs != headerSize {
		return PartInfo{}, corruptf(path, "unexpected header size %d", hs)
	}
	return PartInfo{
		Lo: binary.LittleEndian.Uint32(buf[8:]),
		Hi: binary.LittleEndian.Uint32(buf[12:]),
	}, nil
}

func encodeTrailer(edges uint64, blocks uint32) []byte {
	buf := make([]byte, trailerSize)
	copy(buf, trailerMagic[:])
	binary.LittleEndian.PutUint64(buf[4:], edges)
	binary.LittleEndian.PutUint32(buf[12:], blocks)
	binary.LittleEndian.PutUint32(buf[16:], crc32.ChecksumIEEE(buf[:16]))
	return buf
}

func decodeTrailer(path string, buf []byte) (edges uint64, blocks uint32, err error) {
	if len(buf) < trailerSize {
		return 0, 0, corruptf(path, "short trailer: %d bytes (torn write?)", len(buf))
	}
	if !bytes.Equal(buf[:4], trailerMagic[:]) {
		return 0, 0, corruptf(path, "bad trailer magic %q", buf[:4])
	}
	if got := crc32.ChecksumIEEE(buf[:16]); got != binary.LittleEndian.Uint32(buf[16:]) {
		return 0, 0, corruptf(path, "trailer checksum mismatch")
	}
	return binary.LittleEndian.Uint64(buf[4:]), binary.LittleEndian.Uint32(buf[12:]), nil
}

// blockWriter batches v2 records into CRC-protected blocks.
type blockWriter struct {
	w       *bufio.Writer
	buf     []byte
	count   uint32
	edges   uint64
	blocks  uint32
	written int64
}

func (bw *blockWriter) add(e *Edge) error {
	bw.buf = appendRecordV2(bw.buf, e)
	bw.count++
	bw.edges++
	if len(bw.buf) >= targetBlockSize {
		return bw.flush()
	}
	return nil
}

func (bw *blockWriter) flush() error {
	if bw.count == 0 {
		return nil
	}
	var head [blockHeaderSize]byte
	binary.LittleEndian.PutUint32(head[0:], uint32(len(bw.buf)))
	binary.LittleEndian.PutUint32(head[4:], bw.count)
	binary.LittleEndian.PutUint32(head[8:], crc32.ChecksumIEEE(bw.buf))
	if _, err := bw.w.Write(head[:]); err != nil {
		return err
	}
	if _, err := bw.w.Write(bw.buf); err != nil {
		return err
	}
	bw.written += int64(blockHeaderSize + len(bw.buf))
	bw.buf = bw.buf[:0]
	bw.count = 0
	bw.blocks++
	return nil
}

// syncDir fsyncs the directory containing path so a just-renamed (or
// just-created) file survives a crash. Filesystems that cannot sync
// directories are tolerated.
func syncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	// Ignore Sync errors: directory fsync is unsupported on some platforms
	// and filesystems (it fails with EINVAL/EBADF there), and the data file
	// itself is already durable.
	_ = d.Sync()
	return d.Close()
}

// WriteFileAtomic atomically replaces path with data using the same
// crash-safe sequence as WritePart: write-temp → fsync file → rename →
// fsync directory. A crash leaves either the old file or the complete new
// one — never a torn file under the real name. It backs the progress
// layer's status.json rewrite, where an external poller may read the file
// at any instant.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.Write(data); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(path)
}

// WritePart atomically replaces path with a v2 partition file holding
// edges, recording info in the header. The sequence is write-temp → fsync
// file → rename → fsync directory, so a crash leaves either the old file or
// the complete new one — never a partial file under the real name. Returns
// the bytes written.
func WritePart(path string, edges []Edge, info PartInfo) (int64, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	fail := func(err error) (int64, error) {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	bw := &blockWriter{w: bufio.NewWriterSize(f, 1<<20)}
	if _, err := bw.w.Write(encodeHeader(info)); err != nil {
		return fail(err)
	}
	for i := range edges {
		if err := bw.add(&edges[i]); err != nil {
			return fail(err)
		}
	}
	if err := bw.flush(); err != nil {
		return fail(err)
	}
	if _, err := bw.w.Write(encodeTrailer(bw.edges, bw.blocks)); err != nil {
		return fail(err)
	}
	if err := bw.w.Flush(); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := syncDir(path); err != nil {
		return 0, err
	}
	return headerSize + bw.written + trailerSize, nil
}

// ReadPart loads all edges from path, appending to dst. A missing file
// reads as empty (a partition no edge was ever written to). The file is
// fully verified — header and block checksums, and a trailer whose counts
// match what was decoded — and any other content, a zero-byte file or one
// without the format magic included, is an error wrapping ErrCorrupt.
// Returns the header's PartInfo and the bytes read.
func ReadPart(path string, dst []Edge) ([]Edge, PartInfo, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return dst, PartInfo{}, 0, nil
		}
		return nil, PartInfo{}, 0, err
	}
	defer f.Close()
	edges, info, read, err := scanPart(path, f, dst)
	if err != nil {
		return nil, info, read, err
	}
	return edges, info, read, nil
}

// scanPart is the partition reader behind ReadPart and ReadPartPrefix. It
// verifies the header, then decodes CRC-verified blocks through the
// zero-copy cursor up to a trailer whose counts match what was decoded and
// which must be followed by EOF. It returns dst grown by the edges of every
// whole block decoded before the first failure, together with that failure
// (nil for a valid file). read counts the verified bytes — header, whole
// blocks, trailer — so it is zero exactly when the header itself failed.
func scanPart(path string, f io.Reader, dst []Edge) (edges []Edge, info PartInfo, read int64, err error) {
	r := bufio.NewReaderSize(f, 1<<20)
	head := make([]byte, headerSize)
	if _, err := io.ReadFull(r, head); err != nil {
		return dst, PartInfo{}, 0, corruptf(path, "short header: %v", err)
	}
	if info, err = decodeHeader(path, head); err != nil {
		return dst, PartInfo{}, 0, err
	}
	read = headerSize
	var cur blockCursor // arena persists across blocks: one element chunk serves many records
	var decoded uint64
	var blocks uint32
	var payload []byte
	for {
		var tag [4]byte
		if _, err := io.ReadFull(r, tag[:]); err != nil {
			return dst, info, read, corruptf(path, "missing trailer (torn write?): %v", err)
		}
		if tag == trailerMagic {
			rest := make([]byte, trailerSize)
			copy(rest, tag[:])
			if _, err := io.ReadFull(r, rest[4:]); err != nil {
				return dst, info, read, corruptf(path, "short trailer: %v", err)
			}
			wantEdges, wantBlocks, err := decodeTrailer(path, rest)
			if err != nil {
				return dst, info, read, err
			}
			if wantEdges != decoded || wantBlocks != blocks {
				return dst, info, read, corruptf(path,
					"trailer promises %d edges in %d blocks, decoded %d in %d",
					wantEdges, wantBlocks, decoded, blocks)
			}
			if _, err := r.ReadByte(); err != io.EOF {
				return dst, info, read, corruptf(path, "trailing garbage after trailer")
			}
			return dst, info, read + trailerSize, nil
		}
		// Not the trailer: tag is a block header's payload length.
		plen := binary.LittleEndian.Uint32(tag[:])
		if plen == 0 || plen > maxBlockPayload {
			return dst, info, read, corruptf(path, "implausible block length %d", plen)
		}
		var rest [blockHeaderSize - 4]byte
		if _, err := io.ReadFull(r, rest[:]); err != nil {
			return dst, info, read, corruptf(path, "truncated block header: %v", err)
		}
		count := binary.LittleEndian.Uint32(rest[0:])
		wantCRC := binary.LittleEndian.Uint32(rest[4:])
		if cap(payload) < int(plen) {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(r, payload); err != nil {
			return dst, info, read, corruptf(path, "truncated block payload: %v", err)
		}
		if got := crc32.ChecksumIEEE(payload); got != wantCRC {
			return dst, info, read, corruptf(path,
				"block %d checksum mismatch (want %#x, got %#x)", blocks, wantCRC, got)
		}
		// A failed block is dropped whole: dst keeps its length, and the
		// records decoded into its spare capacity stay invisible.
		grown, rec, err := cur.decodeBlock(payload, count, dst)
		if err != nil {
			if rec < count {
				return dst, info, read, corruptf(path, "block %d record %d: %v", blocks, rec, err)
			}
			return dst, info, read, corruptf(path, "block %d: %d bytes of slack after %d records",
				blocks, cur.remaining(), count)
		}
		dst = grown
		read += int64(blockHeaderSize) + int64(plen)
		decoded += uint64(count)
		blocks++
	}
}

// ReadPartPrefix reads the first n edges of a partition file, tolerating
// damage after that prefix. It is the resume path's reader: a journal record
// promises that the file's first n edges are exactly the checkpointed
// content (between checkpoints the engine only append-extends files or
// rewrites them prefix-preservingly), so anything beyond them — a torn
// append, a post-checkpoint suffix, a missing trailer — is irrelevant and
// must not fail the read.
//
// The header must be intact (it is written once, crash-safely) and only
// whole CRC-verified blocks count; decoding stops at the first invalid
// block. If fewer than n edges are recoverable the file cannot back the
// journal record and the error wraps ErrCorrupt. exact reports that the file
// is a fully valid partition file containing precisely n edges — when false
// the caller should rewrite the file canonically before trusting appends to
// it.
func ReadPartPrefix(path string, n int64) (edges []Edge, info PartInfo, exact bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) && n == 0 {
			return nil, PartInfo{}, true, nil
		}
		return nil, PartInfo{}, false, err
	}
	defer f.Close()
	edges, info, read, err := scanPart(path, f, nil)
	if read == 0 {
		return nil, PartInfo{}, false, err // damaged header: nothing is recoverable
	}
	if int64(len(edges)) < n {
		return nil, info, false, corruptf(path,
			"journal promises %d edges, only %d recoverable", n, len(edges))
	}
	return edges[:n], info, err == nil && int64(len(edges)) == n, nil
}

// AppendPart appends edges to a partition file, creating it when none
// exists. The existing header and trailer are verified, the trailer is
// overwritten by the new blocks, and a new trailer committing the grown
// counts is written and fsynced; a crash mid-append leaves the file without
// a valid trailer, which the next ReadPart rejects (the partial append is
// never silently half-visible). A file that fails verification — a
// zero-byte file or one without the format magic included — is left
// untouched and reported as ErrCorrupt. Returns the bytes written.
func AppendPart(path string, edges []Edge) (int64, error) {
	if len(edges) == 0 {
		return 0, nil
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if os.IsNotExist(err) {
		return WritePart(path, edges, PartInfo{})
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, err
	}
	if size < headerSize+trailerSize {
		return 0, corruptf(path, "file too short for header+trailer: %d bytes", size)
	}
	head := make([]byte, headerSize)
	if _, err := f.ReadAt(head, 0); err != nil {
		return 0, err
	}
	if _, err := decodeHeader(path, head); err != nil {
		return 0, err
	}
	tr := make([]byte, trailerSize)
	if _, err := f.ReadAt(tr, size-trailerSize); err != nil {
		return 0, err
	}
	oldEdges, oldBlocks, err := decodeTrailer(path, tr)
	if err != nil {
		return 0, err
	}
	if _, err := f.Seek(size-trailerSize, io.SeekStart); err != nil {
		return 0, err
	}
	bw := &blockWriter{w: bufio.NewWriterSize(f, 1<<20)}
	for i := range edges {
		if err := bw.add(&edges[i]); err != nil {
			return 0, err
		}
	}
	if err := bw.flush(); err != nil {
		return 0, err
	}
	if _, err := bw.w.Write(encodeTrailer(oldEdges+bw.edges, oldBlocks+bw.blocks)); err != nil {
		return 0, err
	}
	if err := bw.w.Flush(); err != nil {
		return 0, err
	}
	if err := f.Sync(); err != nil {
		return 0, err
	}
	return bw.written + trailerSize, nil
}

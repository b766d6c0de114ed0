// Partition file format v2.
//
// A v2 partition file is
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
// Files written before format v2 carry no magic; ReadPart sniffs the first
// four bytes and falls back to the legacy bare-record-stream decoder. (A v1
// record whose source vertex happens to equal 0x504c5047 — "GPLP" little-
// endian, vertex ~1.3 billion — would be misidentified; the engine's vertex
// spaces are nowhere near that.)
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
	// writer did not know it (legacy files, bare WriteFile calls).
	Lo, Hi uint32
}

func (p PartInfo) known() bool { return p.Lo != 0 || p.Hi != 0 }

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

// ReadOptions controls how ReadPart decodes partition files.
type ReadOptions struct {
	// LegacyDecode routes v2 block payloads through the field-by-field
	// stream decoder instead of the zero-copy block cursor. The two produce
	// identical edges and identical error classes; this is the ablation
	// hook for the hotpath bench and the decode-equivalence tests. v1
	// streams always use the stream decoder regardless.
	LegacyDecode bool
}

// ReadPart loads all edges from path, appending to dst. A missing file
// reads as empty (a partition no edge was ever written to). v2 files are
// fully verified — header and block checksums, and a trailer whose counts
// match what was decoded; legacy v1 files are decoded as bare record
// streams. Returns the header's PartInfo (zero for v1) and bytes read.
func ReadPart(path string, dst []Edge) ([]Edge, PartInfo, int64, error) {
	return ReadPartWith(path, dst, ReadOptions{})
}

// ReadPartWith is ReadPart with explicit decode options.
func ReadPartWith(path string, dst []Edge, opt ReadOptions) ([]Edge, PartInfo, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return dst, PartInfo{}, 0, nil
		}
		return nil, PartInfo{}, 0, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	sniff, err := r.Peek(4)
	if err == io.EOF || (err == nil && !bytes.Equal(sniff, fileMagic[:])) {
		// Legacy v1: a bare record stream (possibly empty).
		edges, n, err := readLegacy(path, r, dst)
		return edges, PartInfo{}, n, err
	}
	if err != nil {
		return nil, PartInfo{}, 0, fmt.Errorf("storage: %s: %w", path, err)
	}
	return readV2(path, r, dst, opt)
}

func readLegacy(path string, r *bufio.Reader, dst []Edge) ([]Edge, int64, error) {
	var n int64
	for {
		var e Edge
		err := decodeRecord(r, &e, false)
		if err == io.EOF {
			return dst, n, nil
		}
		if err != nil {
			return nil, n, fmt.Errorf("%s: %w", path, err)
		}
		n += RecordSize(&e)
		dst = append(dst, e)
	}
}

func readV2(path string, r *bufio.Reader, dst []Edge, opt ReadOptions) ([]Edge, PartInfo, int64, error) {
	var cur blockCursor // arena persists across blocks: one element chunk serves many records
	head := make([]byte, headerSize)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, PartInfo{}, 0, corruptf(path, "short header: %v", err)
	}
	info, err := decodeHeader(path, head)
	if err != nil {
		return nil, PartInfo{}, 0, err
	}
	bytesRead := int64(headerSize)
	var gotEdges uint64
	var gotBlocks uint32
	var payload []byte
	for {
		var tag [4]byte
		if _, err := io.ReadFull(r, tag[:]); err != nil {
			return nil, info, bytesRead, corruptf(path, "missing trailer (torn write?): %v", err)
		}
		if bytes.Equal(tag[:], trailerMagic[:]) {
			rest := make([]byte, trailerSize)
			copy(rest, tag[:])
			if _, err := io.ReadFull(r, rest[4:]); err != nil {
				return nil, info, bytesRead, corruptf(path, "short trailer: %v", err)
			}
			wantEdges, wantBlocks, err := decodeTrailer(path, rest)
			if err != nil {
				return nil, info, bytesRead, err
			}
			if wantEdges != gotEdges || wantBlocks != gotBlocks {
				return nil, info, bytesRead, corruptf(path,
					"trailer promises %d edges in %d blocks, decoded %d in %d",
					wantEdges, wantBlocks, gotEdges, gotBlocks)
			}
			if _, err := r.ReadByte(); err != io.EOF {
				return nil, info, bytesRead, corruptf(path, "trailing garbage after trailer")
			}
			bytesRead += trailerSize
			return dst, info, bytesRead, nil
		}
		// Not the trailer: tag is a block header's payload length.
		plen := binary.LittleEndian.Uint32(tag[:])
		if plen == 0 || plen > maxBlockPayload {
			return nil, info, bytesRead, corruptf(path, "implausible block length %d", plen)
		}
		var rest [blockHeaderSize - 4]byte
		if _, err := io.ReadFull(r, rest[:]); err != nil {
			return nil, info, bytesRead, corruptf(path, "truncated block header: %v", err)
		}
		count := binary.LittleEndian.Uint32(rest[0:])
		wantCRC := binary.LittleEndian.Uint32(rest[4:])
		if cap(payload) < int(plen) {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil, info, bytesRead, corruptf(path, "truncated block payload: %v", err)
		}
		if got := crc32.ChecksumIEEE(payload); got != wantCRC {
			return nil, info, bytesRead, corruptf(path,
				"block %d checksum mismatch (want %#x, got %#x)", gotBlocks, wantCRC, got)
		}
		if opt.LegacyDecode {
			br := bytes.NewReader(payload)
			for i := uint32(0); i < count; i++ {
				var e Edge
				if err := decodeRecord(br, &e, true); err != nil {
					return nil, info, bytesRead, corruptf(path, "block %d record %d: %v", gotBlocks, i, err)
				}
				dst = append(dst, e)
			}
			if br.Len() != 0 {
				return nil, info, bytesRead, corruptf(path, "block %d: %d bytes of slack after %d records",
					gotBlocks, br.Len(), count)
			}
		} else {
			grown, rec, err := cur.decodeBlock(payload, count, dst)
			if err != nil {
				if rec < count {
					return nil, info, bytesRead, corruptf(path, "block %d record %d: %v", gotBlocks, rec, err)
				}
				return nil, info, bytesRead, corruptf(path, "block %d: %d bytes of slack after %d records",
					gotBlocks, cur.remaining(), count)
			}
			dst = grown
		}
		bytesRead += int64(blockHeaderSize) + int64(plen)
		gotEdges += uint64(count)
		gotBlocks++
	}
}

// ReadPartPrefix reads the first n edges of a v2 partition file, tolerating
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
// is a fully valid v2 file containing precisely n edges — when false the
// caller should rewrite the file canonically before trusting appends to it.
func ReadPartPrefix(path string, n int64) (edges []Edge, info PartInfo, exact bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) && n == 0 {
			return nil, PartInfo{}, true, nil
		}
		return nil, PartInfo{}, false, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	head := make([]byte, headerSize)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, PartInfo{}, false, corruptf(path, "short header: %v", err)
	}
	info, err = decodeHeader(path, head)
	if err != nil {
		return nil, PartInfo{}, false, err
	}
	var cur blockCursor // zero-copy decode, same arena reuse as readV2
	var gotEdges uint64
	var gotBlocks uint32
	var payload []byte
	clean := false // a valid trailer matching the decoded counts, then EOF
	for {
		var tag [4]byte
		if _, err := io.ReadFull(r, tag[:]); err != nil {
			break // truncated at a block boundary: prefix ends here
		}
		if bytes.Equal(tag[:], trailerMagic[:]) {
			rest := make([]byte, trailerSize)
			copy(rest, tag[:])
			if _, err := io.ReadFull(r, rest[4:]); err != nil {
				break
			}
			wantEdges, wantBlocks, err := decodeTrailer(path, rest)
			if err != nil || wantEdges != gotEdges || wantBlocks != gotBlocks {
				break
			}
			if _, err := r.ReadByte(); err == io.EOF {
				clean = true
			}
			break
		}
		plen := binary.LittleEndian.Uint32(tag[:])
		if plen == 0 || plen > maxBlockPayload {
			break
		}
		var rest [blockHeaderSize - 4]byte
		if _, err := io.ReadFull(r, rest[:]); err != nil {
			break
		}
		count := binary.LittleEndian.Uint32(rest[0:])
		wantCRC := binary.LittleEndian.Uint32(rest[4:])
		if cap(payload) < int(plen) {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(r, payload); err != nil {
			break
		}
		if crc32.ChecksumIEEE(payload) != wantCRC {
			break
		}
		grown, _, err := cur.decodeBlock(payload, count, edges)
		if err != nil {
			break // CRC collision on garbage: drop the whole block
		}
		edges = grown
		gotEdges += uint64(count)
		gotBlocks++
		// Even once the prefix is satisfied the scan continues: whether the
		// remainder is a clean trailer decides exactness.
	}
	if int64(len(edges)) < n {
		return nil, info, false, corruptf(path,
			"journal promises %d edges, only %d recoverable", n, len(edges))
	}
	exact = clean && int64(gotEdges) == n
	return edges[:n], info, exact, nil
}

// AppendPart appends edges to a partition file, creating a v2 file when
// none exists. For a v2 file the existing trailer is verified, overwritten
// by the new blocks, and a new trailer committing the grown counts is
// written and fsynced; a crash mid-append leaves the file without a valid
// trailer, which the next ReadPart rejects (the partial append is never
// silently half-visible). Legacy v1 files keep receiving bare v1 records.
// Returns the bytes written.
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
	var sniff [4]byte
	n, err := f.ReadAt(sniff[:], 0)
	if err != nil && err != io.EOF {
		return 0, err
	}
	if n < 4 || !bytes.Equal(sniff[:], fileMagic[:]) {
		return appendLegacy(f, edges)
	}

	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, err
	}
	if size < headerSize+trailerSize {
		return 0, corruptf(path, "v2 file too short for header+trailer: %d bytes", size)
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

func appendLegacy(f *os.File, edges []Edge) (int64, error) {
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var buf []byte
	var n int64
	for i := range edges {
		var err error
		buf, err = AppendRecord(buf[:0], &edges[i])
		if err != nil {
			return 0, err
		}
		if _, err := w.Write(buf); err != nil {
			return 0, err
		}
		n += int64(len(buf))
	}
	if err := w.Flush(); err != nil {
		return 0, err
	}
	return n, f.Sync()
}

// WriteFile writes edges to path in format v2 (atomic, fsynced) without
// recording a vertex interval. Kept for callers that do not track partition
// metadata; the engine uses WritePart.
func WriteFile(path string, edges []Edge) error {
	_, err := WritePart(path, edges, PartInfo{})
	return err
}

// ReadFile loads all edges from path, appending to dst.
func ReadFile(path string, dst []Edge) ([]Edge, error) {
	out, _, _, err := ReadPart(path, dst)
	return out, err
}

// AppendFile appends edges to path (creating it if needed).
func AppendFile(path string, edges []Edge) error {
	_, err := AppendPart(path, edges)
	return err
}

package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/grammar"
)

// refDecodeRecord is the reference v2 record decoder the zero-copy
// blockCursor is checked against: it pulls every field through the reader
// one at a time and allocates each encoding separately, so it shares no
// code with the cursor beyond the format itself.
//
// Every failure — including EOF before the first byte — wraps ErrCorrupt:
// v2 records only ever live inside length- and CRC-delimited blocks whose
// header states the record count, so running out of input mid-count is
// corruption, never a clean record boundary.
func refDecodeRecord(r *bytes.Reader, e *Edge) error {
	if err := refDecodeFields(r, e); err != nil {
		return fmt.Errorf("storage: %w: %v", ErrCorrupt, err)
	}
	return nil
}

func refDecodeFields(r *bytes.Reader, e *Edge) error {
	var head [4]byte
	full := func(buf []byte) error {
		_, err := io.ReadFull(r, buf)
		return err
	}
	if err := full(head[:4]); err != nil {
		return fmt.Errorf("truncated src: %w", err)
	}
	e.Src = binary.LittleEndian.Uint32(head[:])
	if err := full(head[:4]); err != nil {
		return fmt.Errorf("truncated dst: %w", err)
	}
	e.Dst = binary.LittleEndian.Uint32(head[:])
	if err := full(head[:2]); err != nil {
		return fmt.Errorf("truncated label: %w", err)
	}
	e.Label = grammar.Label(binary.LittleEndian.Uint16(head[:2]))
	if err := full(head[:4]); err != nil {
		return fmt.Errorf("truncated gen: %w", err)
	}
	e.Gen = binary.LittleEndian.Uint32(head[:])
	flags, err := r.ReadByte()
	if err != nil {
		return fmt.Errorf("truncated flags: %w", err)
	}
	if flags&^byte(1) != 0 {
		return fmt.Errorf("bad record flags %#x", flags)
	}
	e.HasRel = flags&1 != 0
	if e.HasRel {
		var relBuf [fsm.PackedRelSize]byte
		if err := full(relBuf[:]); err != nil {
			return fmt.Errorf("truncated rel: %w", err)
		}
		rel, _, err := fsm.UnpackRel(relBuf[:])
		if err != nil {
			return fmt.Errorf("corrupt rel payload: %w", err)
		}
		e.Rel = rel
	} else {
		e.Rel = fsm.Rel{}
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return fmt.Errorf("truncated enc len: %w", err)
	}
	if n > maxEncElems {
		return fmt.Errorf("encoding length %d exceeds limit %d", n, maxEncElems)
	}
	// Each element costs at least 2 bytes: reject impossible lengths before
	// allocating.
	if n > uint64(r.Len()) {
		return fmt.Errorf("encoding length %d exceeds remaining payload %d", n, r.Len())
	}
	e.Enc = nil
	if n > 0 {
		e.Enc = make(cfet.Enc, n)
	}
	for i := range e.Enc {
		kind, err := r.ReadByte()
		if err != nil {
			return fmt.Errorf("truncated elem kind: %w", err)
		}
		el := cfet.Elem{Kind: cfet.ElemKind(kind)}
		switch el.Kind {
		case cfet.KInterval:
			m, err := binary.ReadUvarint(r)
			if err != nil {
				return fmt.Errorf("truncated method: %w", err)
			}
			el.Method = cfet.MethodID(m)
			if el.Start, err = binary.ReadUvarint(r); err != nil {
				return fmt.Errorf("truncated start: %w", err)
			}
			if el.End, err = binary.ReadUvarint(r); err != nil {
				return fmt.Errorf("truncated end: %w", err)
			}
		case cfet.KCall, cfet.KRet:
			c, err := binary.ReadUvarint(r)
			if err != nil {
				return fmt.Errorf("truncated call id: %w", err)
			}
			el.Call = int32(c)
		default:
			return fmt.Errorf("bad elem kind %d", kind)
		}
		e.Enc[i] = el
	}
	return nil
}

// refReadPart decodes a whole partition file with the reference decoder:
// header, CRC-checked blocks of refDecodeRecord records, and a trailer
// whose counts must match. It is the test-side oracle for ReadPart and
// ReadPartPrefix on files it accepts.
func refReadPart(path string) ([]Edge, PartInfo, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, PartInfo{}, err
	}
	if len(raw) < headerSize+trailerSize {
		return nil, PartInfo{}, fmt.Errorf("file of %d bytes", len(raw))
	}
	info, err := decodeHeader(path, raw[:headerSize])
	if err != nil {
		return nil, PartInfo{}, err
	}
	body, tail := raw[headerSize:len(raw)-trailerSize], raw[len(raw)-trailerSize:]
	var edges []Edge
	var blocks uint32
	for len(body) > 0 {
		if len(body) < blockHeaderSize {
			return nil, info, fmt.Errorf("truncated block header")
		}
		plen := binary.LittleEndian.Uint32(body)
		count := binary.LittleEndian.Uint32(body[4:])
		crc := binary.LittleEndian.Uint32(body[8:])
		body = body[blockHeaderSize:]
		if uint64(plen) > uint64(len(body)) {
			return nil, info, fmt.Errorf("block %d overruns the file", blocks)
		}
		payload := body[:plen]
		body = body[plen:]
		if crc32.ChecksumIEEE(payload) != crc {
			return nil, info, fmt.Errorf("block %d checksum mismatch", blocks)
		}
		r := bytes.NewReader(payload)
		for i := uint32(0); i < count; i++ {
			var e Edge
			if err := refDecodeRecord(r, &e); err != nil {
				return nil, info, err
			}
			edges = append(edges, e)
		}
		if r.Len() != 0 {
			return nil, info, fmt.Errorf("block %d: %d bytes of slack", blocks, r.Len())
		}
		blocks++
	}
	wantEdges, wantBlocks, err := decodeTrailer(path, tail)
	if err != nil {
		return nil, info, err
	}
	if wantEdges != uint64(len(edges)) || wantBlocks != blocks {
		return nil, info, fmt.Errorf("trailer promises %d edges in %d blocks, decoded %d in %d",
			wantEdges, wantBlocks, len(edges), blocks)
	}
	return edges, info, nil
}

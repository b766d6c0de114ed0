// Package storage implements Grapple's on-disk partition format (paper
// §4.3). A partition holds every edge whose source vertex falls in the
// partition's vertex interval. Edge records have variable size because each
// edge inlines its interval-sequence path encoding — per the paper, the
// record itself carries the length of the sequence rather than pointing at a
// separate object, trading random access (which the engine never needs; its
// accesses are sequential) for locality.
//
// A record is a fixed head (Src, Dst, Label, Gen, flags), the packed FSM
// relation when the flags say so, and the encoding length as a uvarint
// followed by the elements. Records live inside the CRC-protected blocks of
// a partition file (see file.go) and are decoded zero-copy (cursor.go).
package storage

import (
	"encoding/binary"
	"math/bits"

	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/grammar"
)

// Edge is one labeled, constraint-carrying graph edge.
type Edge struct {
	Src, Dst uint32
	Label    grammar.Label
	// Gen is the engine iteration that produced the edge (semi-naive
	// evaluation joins only pairs involving a sufficiently new edge).
	Gen uint32
	// HasRel marks dataflow edges carrying an FSM transition relation.
	HasRel bool
	Rel    fsm.Rel
	// Enc is the interval-sequence path encoding (§3.2).
	Enc cfet.Enc
}

// Key hashes the edge's identity (everything except Gen) for deduplication.
// It mixes whole 64-bit words, one multiply-fold per word, and allocates
// nothing: Src/Dst, Label with HasRel, the Rel rows four to a word (only
// when HasRel), each Enc element as four words, and finally len(Enc). Every
// field owns its own bits of its word, so no two field values can cancel;
// the trailing length separates encodings that differ only by trailing
// zero-valued elements.
func (e *Edge) Key() uint64 {
	h := mixWord(keySeed, uint64(e.Src)|uint64(e.Dst)<<32)
	tag := uint64(e.Label)
	if e.HasRel {
		tag |= 1 << 16
	}
	h = mixWord(h, tag)
	if e.HasRel {
		r := &e.Rel
		for i := 0; i < len(r); i += 4 {
			h = mixWord(h, uint64(r[i])|uint64(r[i+1])<<16|uint64(r[i+2])<<32|uint64(r[i+3])<<48)
		}
	}
	for i := range e.Enc {
		el := &e.Enc[i]
		h = mixWord(h, uint64(el.Kind))
		h = mixWord(h, uint64(uint32(el.Method))|uint64(uint32(el.Call))<<32)
		h = mixWord(h, el.Start)
		h = mixWord(h, el.End)
	}
	return mixWord(h, uint64(len(e.Enc)))
}

// keySeed and keyMul are the word mixer's constants (wyhash's primes).
const (
	keySeed = 0xa0761d6478bd642f
	keyMul  = 0xe7037ed1a0b428db
)

// mixWord folds one word into the running hash: the full 128-bit product
// of (h^w) with an odd constant, high half xor low half.
func mixWord(h, w uint64) uint64 {
	hi, lo := bits.Mul64(h^w, keyMul)
	return hi ^ lo
}

// Endpoint identifies an edge up to its constraint payload; the engine caps
// the number of distinct constraint variants kept per endpoint triple.
type Endpoint struct {
	Src, Dst uint32
	Label    grammar.Label
}

// Endpoint returns the edge's endpoint triple.
func (e *Edge) Endpoint() Endpoint {
	return Endpoint{Src: e.Src, Dst: e.Dst, Label: e.Label}
}

// maxEncElems bounds a decoded encoding's element count: a defense against
// corrupted (or adversarial) length fields allocating unbounded memory. Real
// encodings are bounded by the ICFET's MaxEncLen, orders of magnitude below.
const maxEncElems = 1 << 20

// appendRecordV2 serializes e onto dst in the v2 record format. The
// encoding length is a uvarint, so it has no limit and cannot fail.
func appendRecordV2(dst []byte, e *Edge) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, e.Src)
	dst = binary.LittleEndian.AppendUint32(dst, e.Dst)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(e.Label))
	dst = binary.LittleEndian.AppendUint32(dst, e.Gen)
	flags := byte(0)
	if e.HasRel {
		flags |= 1
	}
	dst = append(dst, flags)
	if e.HasRel {
		dst = e.Rel.Pack(dst)
	}
	dst = binary.AppendUvarint(dst, uint64(len(e.Enc)))
	for _, el := range e.Enc {
		dst = append(dst, byte(el.Kind))
		if el.Kind == cfet.KInterval {
			dst = binary.AppendUvarint(dst, uint64(el.Method))
			dst = binary.AppendUvarint(dst, el.Start)
			dst = binary.AppendUvarint(dst, el.End)
		} else {
			dst = binary.AppendUvarint(dst, uint64(el.Call))
		}
	}
	return dst
}

// RecordSize returns the serialized v2 size of e in bytes (the size the
// engine's byte budgets account against). It sums the field widths
// appendRecordV2 writes instead of encoding the record, so it allocates
// nothing.
func RecordSize(e *Edge) int64 {
	n := recordHeadSize + uvarintLen(uint64(len(e.Enc)))
	if e.HasRel {
		n += fsm.PackedRelSize
	}
	for i := range e.Enc {
		el := &e.Enc[i]
		n++ // kind byte
		if el.Kind == cfet.KInterval {
			n += uvarintLen(uint64(el.Method)) + uvarintLen(el.Start) + uvarintLen(el.End)
		} else {
			n += uvarintLen(uint64(el.Call))
		}
	}
	return int64(n)
}

// recordHeadSize is the fixed record head appendRecordV2 writes before the
// optional Rel: Src, Dst, Label, Gen and the flags byte.
const recordHeadSize = 4 + 4 + 2 + 4 + 1

// uvarintLen is the byte length binary.PutUvarint writes for v.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeRecordV2 exercises the zero-copy block cursor and the reference
// stream decoder on arbitrary bytes, requiring them to agree byte for
// byte. Seeds come from decodeV2Seeds, shared with the
// decode-equivalence property test. Run with:
// go test -fuzz=FuzzDecodeRecordV2 ./internal/storage
func FuzzDecodeRecordV2(f *testing.F) {
	for _, seed := range decodeV2Seeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var cur blockCursor
		cur.reset(data)
		for i := 0; i < 4; i++ {
			var e, ce Edge
			err := refDecodeRecord(r, &e)
			cerr := cur.decodeRecord(&ce)
			if (err == nil) != (cerr == nil) {
				t.Fatalf("decoders diverge: stream %v, cursor %v", err, cerr)
			}
			if err != nil {
				// Inside a v2 block every failure is corruption for both.
				if !errors.Is(err, ErrCorrupt) || !errors.Is(cerr, ErrCorrupt) {
					t.Fatalf("untagged decode failure: stream %v, cursor %v", err, cerr)
				}
				return
			}
			if !edgesEqual(e, ce) || cur.remaining() != r.Len() {
				t.Fatalf("decoders diverge on success: %+v vs %+v (%d vs %d left)",
					e, ce, r.Len(), cur.remaining())
			}
			// Round-trip: a decoded record must re-encode to a decodable form.
			back := appendRecordV2(nil, &e)
			var e2 Edge
			if err := refDecodeRecord(bytes.NewReader(back), &e2); err != nil {
				t.Fatalf("re-encoded record failed to decode: %v", err)
			}
			if !edgesEqual(e, e2) {
				t.Fatal("re-encode round trip mismatch")
			}
		}
	})
}

// FuzzReadPart exercises the whole-file reader — header and block CRC
// verification, the trailer commit check — on arbitrary file contents. It
// must reject or decode every input without panicking; every rejection
// wraps ErrCorrupt, a file without the format magic (a zero-byte file
// included) is always rejected, and what it accepts the reference decoder
// must decode to the same edges. Run with:
// go test -fuzz=FuzzReadPart ./internal/storage
func FuzzReadPart(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	dir := f.TempDir()
	seed := filepath.Join(dir, "seed.edges")
	var edges []Edge
	for i := 0; i < 20; i++ {
		edges = append(edges, randEdge(rng))
	}
	if _, err := WritePart(seed, edges, PartInfo{Lo: 3, Hi: 99}); err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	// Bare records without the magic: the pre-v2 layout, which must reject.
	var bare []byte
	for i := range edges[:5] {
		bare = appendRecordV2(bare, &edges[i])
	}
	f.Add(bare)
	f.Add([]byte{})
	f.Add([]byte("GPLP"))
	f.Add(bytes.Repeat([]byte{0x00}, headerSize+trailerSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.edges")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		got, _, _, err := ReadPart(path, nil)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejection not tagged ErrCorrupt: %v", err)
			}
			return
		}
		if !bytes.HasPrefix(data, fileMagic[:]) {
			t.Fatalf("accepted %d bytes without the format magic", len(data))
		}
		want, _, err := refReadPart(path)
		if err != nil {
			t.Fatalf("ReadPart accepted a file the reference decoder rejects: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("ReadPart decoded %d edges, reference %d", len(got), len(want))
		}
		for i := range got {
			if !edgesEqual(got[i], want[i]) {
				t.Fatalf("edge %d diverges: %+v vs %+v", i, got[i], want[i])
			}
		}
	})
}

// FuzzReadJournal exercises the run-journal reader on arbitrary file
// contents: decode must never panic, a corrupt header must wrap ErrCorrupt,
// and whatever records survive must re-encode to records that decode back
// equal (corruption is never half-visible). Run with:
// go test -fuzz=FuzzReadJournal ./internal/storage
func FuzzReadJournal(f *testing.F) {
	dir := f.TempDir()
	w, err := CreateJournal(dir, JournalMeta{NumVertices: 64, Tag: 0xfeed}, nil)
	if err != nil {
		f.Fatal(err)
	}
	for seq := uint64(0); seq < 3; seq++ {
		rec := &JournalRecord{
			Seq: seq, Iterations: int64(seq), CurGen: uint32(seq),
			HotA: -1, HotB: -1,
			Parts: []JournalPart{
				{ID: 0, Lo: 0, Hi: 32, Edges: 10, MaxGen: 1, Path: "part-0.edges"},
			},
			LastGen: []JournalGen{{A: 0, B: 0, Gen: 1}},
		}
		if seq == 2 {
			rec.Completed = true
		}
		if _, err := w.Append(rec); err != nil {
			f.Fatal(err)
		}
	}
	w.Close()
	good, err := os.ReadFile(filepath.Join(dir, JournalName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(good[:journalHeaderSize])
	f.Add([]byte{})
	f.Add([]byte("GPLJ"))
	f.Add(bytes.Repeat([]byte{0x00}, journalHeaderSize+16))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, JournalName), data, 0o644); err != nil {
			t.Skip()
		}
		_, recs, validLen, err := ReadJournal(dir)
		if err != nil {
			return
		}
		if validLen < journalHeaderSize || validLen > int64(len(data)) {
			t.Fatalf("validLen %d outside file of %d bytes", validLen, len(data))
		}
		// Surviving records must be fully formed: re-encode and re-decode.
		for _, rec := range recs {
			payload := encodeJournalRecord(nil, rec)
			back, err := decodeJournalRecord(payload)
			if err != nil {
				t.Fatalf("surviving record does not re-encode: %v", err)
			}
			if back.Seq != rec.Seq || len(back.Parts) != len(rec.Parts) {
				t.Fatal("re-encode round trip mismatch")
			}
		}
	})
}

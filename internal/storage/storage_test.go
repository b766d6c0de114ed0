package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/grammar"
	"github.com/grapple-system/grapple/internal/raceflag"
)

func randEdge(rng *rand.Rand) Edge {
	e := Edge{
		Src:   rng.Uint32(),
		Dst:   rng.Uint32(),
		Label: grammar.Label(rng.Intn(1 << 14)),
		Gen:   rng.Uint32(),
	}
	if rng.Intn(2) == 0 {
		e.HasRel = true
		for i := range e.Rel {
			e.Rel[i] = uint16(rng.Intn(1 << 16))
		}
	}
	n := rng.Intn(6)
	for i := 0; i < n; i++ {
		switch rng.Intn(3) {
		case 0:
			e.Enc = append(e.Enc, cfet.Interval(
				cfet.MethodID(rng.Intn(1000)),
				uint64(rng.Intn(1<<20)),
				uint64(rng.Intn(1<<20))))
		case 1:
			e.Enc = append(e.Enc, cfet.CallElem(int32(rng.Intn(1<<20))))
		default:
			e.Enc = append(e.Enc, cfet.RetElem(int32(rng.Intn(1<<20))))
		}
	}
	return e
}

func edgesEqual(a, b Edge) bool {
	return a.Src == b.Src && a.Dst == b.Dst && a.Label == b.Label &&
		a.Gen == b.Gen && a.HasRel == b.HasRel && a.Rel == b.Rel &&
		a.Enc.Equal(b.Enc)
}

func TestRecordV2RoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var buf []byte
		var want []Edge
		for i := 0; i < 10; i++ {
			e := randEdge(rng)
			want = append(want, e)
			buf = appendRecordV2(buf, &e)
		}
		var cur blockCursor
		cur.reset(buf)
		for _, w := range want {
			var got Edge
			if err := cur.decodeRecord(&got); err != nil {
				return false
			}
			if !edgesEqual(got, w) {
				return false
			}
		}
		return cur.remaining() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// longEncEdge builds an edge with an n-element path encoding; from 128
// elements on, the record's uvarint length takes more than one byte.
func longEncEdge(n int) Edge {
	e := Edge{Src: 7, Dst: 9, Label: 3}
	for i := 0; i < n; i++ {
		e.Enc = append(e.Enc, cfet.CallElem(int32(i)))
	}
	return e
}

func TestLongEncodingRoundTripsInV2(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "long.edges")
	want := []Edge{longEncEdge(300), longEncEdge(1000)}
	if _, err := WritePart(path, want, PartInfo{}); err != nil {
		t.Fatal(err)
	}
	got, _, _, err := ReadPart(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d edges want %d", len(got), len(want))
	}
	for i := range want {
		if !edgesEqual(got[i], want[i]) {
			t.Fatalf("edge %d mismatch", i)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p0.edges")
	rng := rand.New(rand.NewSource(99))
	var want []Edge
	for i := 0; i < 1000; i++ {
		want = append(want, randEdge(rng))
	}
	info := PartInfo{Lo: 17, Hi: 4242}
	n, err := WritePart(path, want, info)
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != st.Size() {
		t.Fatalf("WritePart reported %d bytes, file has %d", n, st.Size())
	}
	got, gotInfo, read, err := ReadPart(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gotInfo != info {
		t.Fatalf("PartInfo round trip: got %+v want %+v", gotInfo, info)
	}
	if read != n {
		t.Fatalf("ReadPart reported %d bytes, wrote %d", read, n)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d edges want %d", len(got), len(want))
	}
	for i := range want {
		if !edgesEqual(got[i], want[i]) {
			t.Fatalf("edge %d mismatch", i)
		}
	}
	if entries, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(entries) != 0 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}

func TestWriteFileEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.edges")
	if _, err := WritePart(path, nil, PartInfo{}); err != nil {
		t.Fatal(err)
	}
	got, _, _, err := ReadPart(path, nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty v2 file: %v %v", got, err)
	}
}

func TestAppendFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p1.edges")
	rng := rand.New(rand.NewSource(5))
	a := []Edge{randEdge(rng), randEdge(rng)}
	b := []Edge{randEdge(rng)}
	if _, err := AppendPart(path, a); err != nil {
		t.Fatal(err)
	}
	if _, err := AppendPart(path, b); err != nil {
		t.Fatal(err)
	}
	got, _, _, err := ReadPart(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d edges", len(got))
	}
	if !edgesEqual(got[2], b[0]) {
		t.Fatal("appended edge mismatch")
	}
}

func TestAppendToWrittenPart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p2.edges")
	rng := rand.New(rand.NewSource(6))
	base := []Edge{randEdge(rng), randEdge(rng), randEdge(rng)}
	if _, err := WritePart(path, base, PartInfo{Lo: 1, Hi: 5}); err != nil {
		t.Fatal(err)
	}
	more := []Edge{randEdge(rng), longEncEdge(400)}
	if _, err := AppendPart(path, more); err != nil {
		t.Fatal(err)
	}
	got, info, _, err := ReadPart(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info != (PartInfo{Lo: 1, Hi: 5}) {
		t.Fatalf("append clobbered header info: %+v", info)
	}
	want := append(append([]Edge{}, base...), more...)
	if len(got) != len(want) {
		t.Fatalf("got %d edges want %d", len(got), len(want))
	}
	for i := range want {
		if !edgesEqual(got[i], want[i]) {
			t.Fatalf("edge %d mismatch", i)
		}
	}
}

// TestCorruptionMatrix checks that every corruption class is rejected with
// a diagnosable error (wrapped ErrCorrupt) instead of being misparsed,
// panicking, or silently decoding zero values.
func TestCorruptionMatrix(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(42))
	var edges []Edge
	for i := 0; i < 200; i++ {
		edges = append(edges, randEdge(rng))
	}
	pristine := filepath.Join(dir, "pristine.edges")
	if _, err := WritePart(pristine, edges, PartInfo{Lo: 0, Hi: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(pristine)
	if err != nil {
		t.Fatal(err)
	}

	// appendToo marks damage to the header or the file's end, which
	// AppendPart verifies too: it must reject the file and leave it as it
	// was. (In-block damage surfaces only on the next read.)
	cases := []struct {
		name      string
		appendToo bool
		mutate    func([]byte) []byte
	}{
		{"truncated mid-block", true, func(b []byte) []byte { return b[:len(b)/2] }},
		{"truncated trailer", true, func(b []byte) []byte { return b[:len(b)-1] }},
		{"missing trailer", true, func(b []byte) []byte { return b[:len(b)-trailerSize] }},
		{"short header", true, func(b []byte) []byte { return b[:headerSize-4] }},
		{"zero-byte file", true, func([]byte) []byte { return []byte{} }},
		{"record stream without magic", true, func([]byte) []byte {
			// Bare records, the pre-v2 layout: for encodings under 128
			// elements the uvarint length is the single byte the v1 format
			// used, so these bytes parse as v1 records.
			var c []byte
			for i := range edges[:5] {
				c = appendRecordV2(c, &edges[i])
			}
			return c
		}},
		{"stale version byte", true, func(b []byte) []byte {
			c := append([]byte{}, b...)
			binary.LittleEndian.PutUint16(c[4:], 1) // claim format v1 under the v2 magic
			binary.LittleEndian.PutUint32(c[20:], crcOf(c[:20]))
			return c
		}},
		{"header bit flip", true, func(b []byte) []byte {
			c := append([]byte{}, b...)
			c[9] ^= 0x40 // inside lo, covered by the header CRC
			return c
		}},
		{"block payload bit flip", false, func(b []byte) []byte {
			c := append([]byte{}, b...)
			c[headerSize+blockHeaderSize+10] ^= 0x01
			return c
		}},
		{"rel payload bit flip", false, func(b []byte) []byte {
			// Any in-block flip must be caught by the block CRC — this is the
			// class that used to silently flip verdicts via a zero/garbled Rel.
			c := append([]byte{}, b...)
			c[len(c)-trailerSize-3] ^= 0x80
			return c
		}},
		{"trailer count lie", false, func(b []byte) []byte {
			c := append([]byte{}, b...)
			off := len(c) - trailerSize
			binary.LittleEndian.PutUint64(c[off+4:], 9999)
			binary.LittleEndian.PutUint32(c[off+16:], crcOf(c[off:off+16]))
			return c
		}},
		{"trailing garbage", true, func(b []byte) []byte { return append(append([]byte{}, b...), 0xAB) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, "corrupt.edges")
			data := tc.mutate(append([]byte{}, good...))
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, _, err := ReadPart(path, nil)
			if err == nil {
				t.Fatal("corrupted file accepted")
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error not tagged ErrCorrupt: %v", err)
			}
			if !tc.appendToo {
				return
			}
			if _, err := AppendPart(path, edges[:1]); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("AppendPart: want ErrCorrupt, got %v", err)
			}
			if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, data) {
				t.Fatalf("AppendPart changed a file it rejected (%d -> %d bytes, %v)", len(data), len(after), err)
			}
		})
	}

	t.Run("append to corrupt file", func(t *testing.T) {
		path := filepath.Join(dir, "corrupt-append.edges")
		if err := os.WriteFile(path, good[:len(good)-3], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := AppendPart(path, edges[:1]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("append to torn file: %v", err)
		}
	})
}

func crcOf(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

func TestWritePartReplacesStaleTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.edges")
	// A stale temp file from a crashed writer must not break the next write.
	if err := os.WriteFile(path+".tmp", []byte("stale garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	e := randEdge(rand.New(rand.NewSource(3)))
	if _, err := WritePart(path, []Edge{e}, PartInfo{}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file survived a successful write")
	}
	got, _, _, err := ReadPart(path, nil)
	if err != nil || len(got) != 1 {
		t.Fatalf("read back: %v %v", got, err)
	}
}

func TestWritePartCleansTempOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.edges")
	// Make the rename fail: the destination is a non-empty directory.
	if err := os.MkdirAll(filepath.Join(path, "block"), 0o755); err != nil {
		t.Fatal(err)
	}
	e := randEdge(rand.New(rand.NewSource(4)))
	if _, err := WritePart(path, []Edge{e}, PartInfo{}); err == nil {
		t.Fatal("WritePart over a directory succeeded")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file not cleaned up after failed write")
	}
}

func TestReadMissingFileIsEmpty(t *testing.T) {
	got, _, _, err := ReadPart(filepath.Join(t.TempDir(), "nope.edges"), nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("missing file: %v %v", got, err)
	}
}

func TestKeyDistinguishes(t *testing.T) {
	base := Edge{Src: 1, Dst: 2, Label: 3, Enc: cfet.Enc{cfet.Interval(0, 0, 5)}}
	variants := []Edge{
		{Src: 9, Dst: 2, Label: 3, Enc: base.Enc},
		{Src: 1, Dst: 9, Label: 3, Enc: base.Enc},
		{Src: 1, Dst: 2, Label: 9, Enc: base.Enc},
		{Src: 2, Dst: 1, Label: 3, Enc: base.Enc},
		{Src: 1, Dst: 2, Label: 3, Enc: cfet.Enc{cfet.Interval(0, 0, 6)}},
		{Src: 1, Dst: 2, Label: 3, Enc: cfet.Enc{cfet.CallElem(5)}},
		{Src: 1, Dst: 2, Label: 3, Enc: base.Enc, HasRel: true, Rel: fsm.Identity()},
	}
	for i, v := range variants {
		if v.Key() == base.Key() {
			t.Errorf("variant %d collides with base", i)
		}
	}
	// Gen must NOT affect identity.
	withGen := base
	withGen.Gen = 77
	if withGen.Key() != base.Key() {
		t.Fatal("gen must not affect identity")
	}

	// Pairs whose fields carry the same values in different places: a
	// hash that drops a field, lets two fields share bits, or ignores
	// order or length collides on these.
	swapped := fsm.Identity()
	swapped[0], swapped[1] = swapped[1], swapped[0]
	zero := cfet.Elem{}
	pairs := []struct {
		name string
		a, b Edge
	}{
		{"HasRel false vs true with a zero Rel",
			Edge{Src: 1, Dst: 2, Label: 3},
			Edge{Src: 1, Dst: 2, Label: 3, HasRel: true}},
		{"Rel rows in another order",
			Edge{Src: 1, Dst: 2, Label: 3, HasRel: true, Rel: fsm.Identity()},
			Edge{Src: 1, Dst: 2, Label: 3, HasRel: true, Rel: swapped}},
		{"Enc with and without a trailing zero element",
			Edge{Src: 1, Dst: 2, Label: 3, Enc: cfet.Enc{cfet.Interval(0, 0, 5)}},
			Edge{Src: 1, Dst: 2, Label: 3, Enc: cfet.Enc{cfet.Interval(0, 0, 5), zero}}},
		{"empty Enc vs one zero element",
			Edge{Src: 1, Dst: 2, Label: 3},
			Edge{Src: 1, Dst: 2, Label: 3, Enc: cfet.Enc{zero}}},
		{"value moves from Kind to Method",
			Edge{Src: 1, Dst: 2, Label: 3, Enc: cfet.Enc{{Kind: 1}}},
			Edge{Src: 1, Dst: 2, Label: 3, Enc: cfet.Enc{{Method: 1}}}},
		{"value moves from Method to Call",
			Edge{Src: 1, Dst: 2, Label: 3, Enc: cfet.Enc{{Method: 7}}},
			Edge{Src: 1, Dst: 2, Label: 3, Enc: cfet.Enc{{Call: 7}}}},
		{"value moves from Kind to Call",
			Edge{Src: 1, Dst: 2, Label: 3, Enc: cfet.Enc{cfet.CallElem(0)}},
			Edge{Src: 1, Dst: 2, Label: 3, Enc: cfet.Enc{{Call: 1}}}},
		{"value moves from Start to End",
			Edge{Src: 1, Dst: 2, Label: 3, Enc: cfet.Enc{cfet.Interval(0, 4, 0)}},
			Edge{Src: 1, Dst: 2, Label: 3, Enc: cfet.Enc{cfet.Interval(0, 0, 4)}}},
		{"elements in another order",
			Edge{Src: 1, Dst: 2, Label: 3, Enc: cfet.Enc{cfet.CallElem(4), cfet.RetElem(4)}},
			Edge{Src: 1, Dst: 2, Label: 3, Enc: cfet.Enc{cfet.RetElem(4), cfet.CallElem(4)}}},
	}
	for _, p := range pairs {
		if p.a.Key() == p.b.Key() {
			t.Errorf("%s: keys collide (%#x)", p.name, p.a.Key())
		}
	}

	// The key reads Rel only when HasRel is set, like the record format.
	stale := base
	stale.Rel = fsm.Identity()
	if stale.Key() != base.Key() {
		t.Fatal("a Rel without HasRel must not affect identity")
	}
}

// TestKeyNoCollisionsRandom draws many random edges and requires distinct
// keys for distinct identities: a weak mixer (one that lets fields cancel)
// shows up here as collisions long before 2^32 edges.
func TestKeyNoCollisionsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	seen := map[uint64]Edge{}
	for i := 0; i < 200000; i++ {
		e := randEdge(rng)
		e.Src, e.Dst = e.Src%64, e.Dst%64 // crowd the endpoint space
		e.Gen = 0
		k := e.Key()
		if prev, ok := seen[k]; ok && !edgesEqual(prev, e) {
			t.Fatalf("distinct edges share key %#x:\n  %+v\n  %+v", k, prev, e)
		}
		seen[k] = e
	}
}

func TestKeyZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	e := randEdge(rand.New(rand.NewSource(5)))
	e.HasRel = true
	var sink uint64
	if allocs := testing.AllocsPerRun(100, func() { sink ^= e.Key() }); allocs != 0 {
		t.Fatalf("Key allocates %.1f/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { sink ^= uint64(RecordSize(&e)) }); allocs != 0 {
		t.Fatalf("RecordSize allocates %.1f/op, want 0", allocs)
	}
	_ = sink
}

func TestEndpointTriple(t *testing.T) {
	e := Edge{Src: 4, Dst: 5, Label: 6}
	if e.Endpoint() != (Endpoint{Src: 4, Dst: 5, Label: 6}) {
		t.Fatal("endpoint mismatch")
	}
}

func TestRecordSizePositive(t *testing.T) {
	e := randEdge(rand.New(rand.NewSource(2)))
	if RecordSize(&e) < 15 {
		t.Fatal("record size too small")
	}
}

// TestRecordSizeMatchesEncoding pins RecordSize's arithmetic to the bytes
// appendRecordV2 actually writes, including varint boundaries and negative
// method or call IDs.
func TestRecordSizeMatchesEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	edges := []Edge{
		{},
		{HasRel: true},
		{Enc: cfet.Enc{cfet.Interval(-1, 127, 128), cfet.CallElem(-5), cfet.RetElem(1 << 30)}},
		{Enc: cfet.Enc{cfet.Interval(1<<20, 1<<63, ^uint64(0)), {Kind: 7, Call: 300}}},
	}
	for i := 0; i < 2000; i++ {
		edges = append(edges, randEdge(rng))
	}
	for _, e := range edges {
		if got, want := RecordSize(&e), int64(len(appendRecordV2(nil, &e))); got != want {
			t.Fatalf("RecordSize = %d, encoded %d bytes: %+v", got, want, e)
		}
	}
}

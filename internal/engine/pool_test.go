package engine

import (
	"fmt"
	"runtime"
	"sort"
	"testing"

	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/grammar"
	"github.com/grapple-system/grapple/internal/raceflag"
	"github.com/grapple-system/grapple/internal/smt"
	"github.com/grapple-system/grapple/internal/storage"
)

// TestSmallFrontierFansOut pins the splitRange fix: a 3-edge frontier under
// 8 workers must fan out to 3 single-edge chunks, not collapse onto one
// goroutine (the old workers>len(firsts) clamp-to-1 behavior).
func TestSmallFrontierFansOut(t *testing.T) {
	chunks := splitRange(nil, 3, 8)
	if len(chunks) != 3 {
		t.Fatalf("3 edges under 8 workers split into %d chunks, want 3: %v", len(chunks), chunks)
	}
	for i, c := range chunks {
		if c != [2]int{i, i + 1} {
			t.Fatalf("chunk %d = %v, want [%d,%d)", i, c, i, i+1)
		}
	}
}

// TestSplitRangeProperties checks splitRange's invariants over a parameter
// sweep: chunks tile [0,n) in order, and there are never more chunks than
// workers or elements.
func TestSplitRangeProperties(t *testing.T) {
	for n := 0; n <= 40; n++ {
		for workers := 0; workers <= 12; workers++ {
			chunks := splitRange(nil, n, workers)
			if n == 0 || workers == 0 {
				if len(chunks) != 0 {
					t.Fatalf("n=%d workers=%d: got %v", n, workers, chunks)
				}
				continue
			}
			if len(chunks) > workers || len(chunks) > n {
				t.Fatalf("n=%d workers=%d: %d chunks", n, workers, len(chunks))
			}
			next := 0
			for _, c := range chunks {
				if c[0] != next || c[1] <= c[0] {
					t.Fatalf("n=%d workers=%d: bad tiling %v", n, workers, chunks)
				}
				next = c[1]
			}
			if next != n {
				t.Fatalf("n=%d workers=%d: chunks cover [0,%d), want [0,%d)", n, workers, next, n)
			}
		}
	}
}

// closureFingerprint canonicalizes an engine's closed graph into a sorted
// multiset of fully-rendered edges (endpoints, label, rel, and every
// encoding element), so two runs can be compared for byte-level identity.
func closureFingerprint(t *testing.T, en *Engine) []string {
	t.Helper()
	var out []string
	if err := en.ForEach(func(e *storage.Edge) bool {
		out = append(out, fmt.Sprintf("%d>%d:%d rel=%v,%v enc=%v", e.Src, e.Dst, e.Label, e.HasRel, e.Rel, e.Enc))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

// TestClosureIdentityAcrossAblation runs the same constraint-carrying
// workload at one and at four join workers, with a memory budget small
// enough to force real partition spills and reads, and requires
// bit-identical closures and identical rejection statistics. Worker count
// is a performance knob, never a semantic one: four workers share the
// pooled chunk scratch, the lock-free dedupe pre-check and the per-chunk
// counters that one worker exercises alone. Runs under `make race` with the
// rest of the engine package.
func TestClosureIdentityAcrossAblation(t *testing.T) {
	ic := buildFromSource(t, `
fun f(x: int) {
  if (x > 0) {
    x = x + 1;
  } else {
    x = x - 1;
  }
  return;
}`)
	m := ic.Method("f")
	d := grammar.NewDataflow()
	var edges []storage.Edge
	const n = 24
	for i := uint32(0); i+1 < n; i++ {
		e := flowEdge(i, i+1, d.Flow)
		if i%3 == 0 {
			e.Enc = cfet.Enc{cfet.Interval(m.Method, 0, 2)}
		}
		edges = append(edges, e)
	}

	var baseline []string
	var baseStats *Stats
	for _, workers := range []int{1, 4} {
		opts := Options{
			MemoryBudget: 4 << 10, // force multiple partitions
			Workers:      workers,
		}
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			en, st := runEngine(t, ic, d.G, opts, edges, n)
			fp := closureFingerprint(t, en)
			if baseline == nil {
				baseline, baseStats = fp, st
				return
			}
			if len(fp) != len(baseline) {
				t.Fatalf("closure size %d, baseline %d", len(fp), len(baseline))
			}
			for i := range fp {
				if fp[i] != baseline[i] {
					t.Fatalf("closure diverges at edge %d:\n  got  %s\n  want %s", i, fp[i], baseline[i])
				}
			}
			if st.EdgesAfter != baseStats.EdgesAfter ||
				st.RejectedUnsat != baseStats.RejectedUnsat ||
				st.RejectedConflict != baseStats.RejectedConflict ||
				st.Widened != baseStats.Widened {
				t.Fatalf("stats diverge: %+v vs baseline %+v", st, baseStats)
			}
		})
	}
}

// TestCacheProbeZeroAlloc is the join's cache-probe allocation assertion:
// with the chunk's scratch buffer in place, an SMT-cache probe (key encode +
// lookup) must not allocate — the key string only materializes when
// PutBytes actually inserts.
func TestCacheProbeZeroAlloc(t *testing.T) {
	enc := cfet.Enc{
		cfet.Interval(3, 1, 9),
		cfet.CallElem(12),
		cfet.RetElem(12),
		cfet.Interval(4, 0, 1<<18),
	}
	cache := smt.NewCache(64)
	const prefix = "unit0:"
	warm := append([]byte(prefix), appendEncCacheKey(nil, enc)...)
	cache.PutBytes(warm, smt.Sat)
	if v, ok := cache.GetBytes(warm); !ok || v != smt.Sat {
		t.Fatalf("byte-key round trip failed: %v %v", v, ok)
	}

	if raceflag.Enabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	keyBuf := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		keyBuf = append(keyBuf[:0], prefix...)
		keyBuf = appendEncCacheKey(keyBuf, enc)
		if _, ok := cache.GetBytes(keyBuf); !ok {
			t.Fatal("warm probe missed")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm cache probe allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkEdgeJoin closes a chain, reporting ns per induced edge (the
// join's unit of work) and allocations.
func BenchmarkEdgeJoin(b *testing.B) {
	d := grammar.NewDataflow()
	var edges []storage.Edge
	const n = 48
	for i := uint32(0); i+1 < n; i++ {
		edges = append(edges, flowEdge(i, i+1, d.Flow))
	}
	var induced int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		opts := Options{
			Dir:          b.TempDir(),
			MemoryBudget: 8 << 10,
			Workers:      4,
		}
		en := New(emptyICFET(), d.G, opts, nil)
		b.StartTimer()
		st, err := en.Run(edges, n)
		if err != nil {
			b.Fatal(err)
		}
		induced = st.EdgesAfter - st.EdgesBefore
	}
	b.StopTimer()
	if induced > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(induced), "ns/edge-join")
	}
}

// joinAllocsPerEdgeBudget bounds TestJoinAllocBudget's allocations per
// induced edge. The subject measures 0.80 with the merge scratch, the
// encoding arena and the candidate slabs in place, 32 when every merge
// allocates its own encoding, and 62 with the earlier hash/fnv edge key.
const joinAllocsPerEdgeBudget = 1.2

// TestJoinAllocBudget is the join's allocation gate: a closure over a
// layered graph, where every induced edge is derived along many paths and
// half the paths carry encodings, must stay within
// joinAllocsPerEdgeBudget allocations per induced edge.
func TestJoinAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	ic := buildFromSource(t, `
fun f(x: int) {
  if (x > 0) {
    x = x + 1;
  } else {
    x = x - 1;
  }
  return;
}`)
	m := ic.Method("f")
	d := grammar.NewDataflow()
	const layers, width = 8, 12
	var edges []storage.Edge
	for l := uint32(0); l+1 < layers; l++ {
		for a := uint32(0); a < width; a++ {
			for b := uint32(0); b < width; b++ {
				e := flowEdge(l*width+a, (l+1)*width+b, d.Flow)
				if (a+b)%2 == 0 {
					e.Enc = cfet.Enc{cfet.Interval(m.Method, 0, 2)}
				}
				edges = append(edges, e)
			}
		}
	}
	opts := Options{Dir: t.TempDir(), Workers: 2}
	en := New(ic, d.G, opts, nil)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	st, err := en.Run(edges, layers*width)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	induced := st.EdgesAfter - st.EdgesBefore
	if induced <= 0 {
		t.Fatalf("closure induced no edges: %+v", st)
	}
	perEdge := float64(after.Mallocs-before.Mallocs) / float64(induced)
	t.Logf("%d induced edges, %.2f allocs/edge", induced, perEdge)
	if perEdge > joinAllocsPerEdgeBudget {
		t.Fatalf("join allocates %.2f per induced edge, budget %.1f", perEdge, joinAllocsPerEdgeBudget)
	}
}

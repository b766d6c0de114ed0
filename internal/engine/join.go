package engine

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/smt"
	"github.com/grapple-system/grapple/internal/storage"
	"github.com/grapple-system/grapple/internal/trace"
)

// candidate is a validated induced edge awaiting insertion, with the dedupe
// key the join's pre-check already computed for it. A join candidate's Enc
// lives in its chunk's arena until insert copies it out.
type candidate struct {
	edge storage.Edge
	key  uint64
}

// joinScratch is one join chunk's reusable buffers: the candidate batch the
// chunk produces, the SMT-cache key scratch its probes encode into, the
// encoding its path merges build in, and the arena holding the encodings of
// the batch's candidates. The superstep loop is single-threaded, so a
// chunk's batch from superstep N is fully consumed (inserted) before
// superstep N+1 hands the same scratch to another goroutine; within a
// superstep each chunk owns its scratch exclusively.
type joinScratch struct {
	out    slab[candidate]
	keyBuf []byte
	merged cfet.Enc
	arena  slab[cfet.Elem]
}

// slab is an append-only store kept in fixed-size chunks that reset refills
// from the start. Growing it never copies stored elements, and once it has
// held a superstep's worth it never allocates; a plain slice would copy,
// and fault in fresh pages for, every doubling of a large batch.
type slab[T any] struct {
	chunks [][]T // each chunk's length is its used prefix
	cur    int
}

const slabChunk = 4096

func (s *slab[T]) reset() {
	for i := range s.chunks {
		s.chunks[i] = s.chunks[i][:0]
	}
	s.cur = 0
}

// alloc returns n contiguous elements within one chunk, capped at n so an
// append through the result can never overwrite a neighbor.
func (s *slab[T]) alloc(n int) []T {
	for s.cur < len(s.chunks) && cap(s.chunks[s.cur])-len(s.chunks[s.cur]) < n {
		s.cur++
	}
	if s.cur == len(s.chunks) {
		s.chunks = append(s.chunks, make([]T, 0, max(slabChunk, n)))
	}
	c := s.chunks[s.cur]
	lo := len(c)
	c = c[:lo+n]
	s.chunks[s.cur] = c
	return c[lo : lo+n : lo+n]
}

// splitRange appends to dst the bounds of at most `workers` contiguous,
// near-equal chunks covering [0, n) — and never more chunks than elements,
// so a 3-edge frontier under 8 workers fans out to 3 single-edge chunks
// instead of serializing on one goroutine (the old clamp-to-1 behavior).
func splitRange(dst [][2]int, n, workers int) [][2]int {
	if n <= 0 || workers < 1 {
		return dst
	}
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		dst = append(dst, [2]int{lo, hi})
	}
	return dst
}

// processPair loads partitions i and j, joins every consecutive edge pair
// (x->y, y->z) whose labels match a grammar production and whose combined
// path constraint is satisfiable, and adds the induced edges (paper §4.2,
// §4.3 "similar in spirit to table joining in relational algebra, but ...
// we need to consider the constraints of both assignment semantics and
// paths"). Returns the superstep's frontier size — how many source edges
// were eligible for joining — for the observability layer.
func (en *Engine) processPair(i, j int) (int, error) {
	// Make room for i, j; other cached partitions stay resident until the
	// memory budget forces them out, least-recently-used first.
	if err := en.ensureBudget(i, j); err != nil {
		return 0, err
	}
	pi, err := en.load(i)
	if err != nil {
		return 0, err
	}
	pj := pi
	if j != i {
		if pj, err = en.load(j); err != nil {
			return 0, err
		}
	}
	en.hot = [2]int{i, j}
	key := [2]int{en.parts[i].id, en.parts[j].id}
	last, seen := en.lastGen[key]
	en.curGen++
	gen := en.curGen

	// Collect source edges; semi-naive: at least one side must be new. The
	// frontier slice is reused across supersteps: the previous superstep's
	// frontier is dead by the time the loop comes back here (its candidates
	// were inserted before the superstep ended).
	firsts := en.firstsBuf[:0]
	collect := func(mp *memPart) {
		for k := range mp.edges {
			e := &mp.edges[k]
			if en.g.HasLeft(e.Label) {
				firsts = append(firsts, e)
			}
		}
	}
	collect(pi)
	if j != i {
		collect(pj)
	}

	lookup := func(src uint32) ([]int32, *memPart) {
		if src >= pi.meta.lo && src < pi.meta.hi {
			return pi.bySrc[src], pi
		}
		if j != i && src >= pj.meta.lo && src < pj.meta.hi {
			return pj.bySrc[src], pj
		}
		return nil, nil
	}

	chunks := splitRange(en.chunkBuf[:0], len(firsts), en.opts.Workers)
	en.chunkBuf = chunks
	for len(en.scratch) < len(chunks) {
		en.scratch = append(en.scratch, &joinScratch{})
	}
	var wg sync.WaitGroup
	for w, c := range chunks {
		wg.Add(1)
		go func(scr *joinScratch, lo, hi int) {
			defer wg.Done()
			en.joinRange(firsts[lo:hi], lookup, last, seen, gen, scr)
		}(en.scratch[w], c[0], c[1])
	}
	// While the join computes, start loading the partition the scheduler is
	// predicted to need next, so the next iteration's disk wait overlaps
	// this iteration's CPU work.
	if !en.opts.DisablePrefetch {
		en.speculate(i, j)
	}
	wg.Wait()

	// Insert candidates (single-threaded: dedupe set and partitions).
	computeStart := time.Now()
	var widened int64
	for _, scr := range en.scratch[:len(chunks)] {
		for _, batch := range scr.out.chunks {
			for k := range batch {
				widened += en.insert(&batch[k])
			}
		}
	}
	en.bd.AddCompute(time.Since(computeStart))
	en.firstsBuf = firsts
	if widened > 0 {
		en.mu.Lock()
		en.stats.Widened += widened
		en.mu.Unlock()
	}

	// Edges induced during this very iteration carry generation `gen` and
	// still need to be joined against everything, so the pair is processed
	// "up to" gen-1: it stays dirty exactly when this pass added edges.
	en.lastGen[key] = gen - 1

	if err := en.flushPending(false); err != nil {
		return 0, err
	}
	// Eager repartitioning (paper §4.3): split any loaded partition whose
	// byte size outgrew the budget. Split j before i: the split inserts a
	// partition right after the split position, which would shift j.
	for _, idx := range []int{j, i} {
		if mp, ok := en.loaded[idx]; ok && mp.meta.bytes > en.opts.MemoryBudget/3 {
			if err := en.repartition(idx); err != nil {
				return 0, err
			}
		}
	}
	return len(firsts), nil
}

// speculate predicts the pair the scheduler will pick once the current one
// goes clean and starts background loads for its unloaded members. The scan
// mirrors nextPair (hot scoring, same order) but skips the current pair —
// re-selecting it costs no I/O — and pairs already fully in memory. A wrong
// guess costs one stale or wasted prefetch, never correctness: prefetching
// only changes when bytes are read, not what the engine computes.
func (en *Engine) speculate(curI, curJ int) {
	best, bestScore := [2]int{-1, -1}, -1
	for i := 0; i < len(en.parts); i++ {
		for j := i; j < len(en.parts); j++ {
			if i == curI && j == curJ {
				continue
			}
			key := [2]int{en.parts[i].id, en.parts[j].id}
			last, seen := en.lastGen[key]
			if seen && en.parts[i].maxGen <= last && en.parts[j].maxGen <= last {
				continue
			}
			_, iLoaded := en.loaded[i]
			_, jLoaded := en.loaded[j]
			if iLoaded && jLoaded {
				continue
			}
			score := 0
			if i == curI || i == curJ {
				score++
			}
			if j == curI || j == curJ {
				score++
			}
			if score > bestScore {
				best, bestScore = [2]int{i, j}, score
			}
		}
	}
	if bestScore < 0 {
		return
	}
	for _, idx := range best {
		if _, ok := en.loaded[idx]; !ok {
			en.pf.start(en.parts[idx])
		}
	}
}

// appendEncCacheKey appends the memoization key of an encoding's raw
// elements to dst. Callers reuse dst across probes so a cache lookup costs
// no allocation; the key string is materialized only when the cache
// actually inserts an entry (smt.Cache.PutBytes).
func appendEncCacheKey(dst []byte, enc cfet.Enc) []byte {
	var tmp [binary.MaxVarintLen64]byte
	for _, el := range enc {
		dst = append(dst, byte(el.Kind))
		switch el.Kind {
		case cfet.KInterval:
			n := binary.PutUvarint(tmp[:], uint64(el.Method))
			dst = append(dst, tmp[:n]...)
			n = binary.PutUvarint(tmp[:], el.Start)
			dst = append(dst, tmp[:n]...)
			n = binary.PutUvarint(tmp[:], el.End)
			dst = append(dst, tmp[:n]...)
		default:
			n := binary.PutUvarint(tmp[:], uint64(el.Call))
			dst = append(dst, tmp[:n]...)
		}
	}
	return dst
}

// joinRange joins each first edge against the loaded second edges and
// leaves the constraint-validated candidates in scr.out. Runs concurrently;
// touches only read-only engine state plus its own solver and scratch.
// Rejection counts and solve time accumulate in locals and are folded into
// the engine's stats once per chunk, under the lock the cache counters
// already take.
func (en *Engine) joinRange(firsts []*storage.Edge, lookup func(uint32) ([]int32, *memPart), last uint32, seen bool, gen uint32, scr *joinScratch) {
	solver := &smt.CachedSolver{S: smt.New(en.opts.SolverOpts)}
	scr.out.reset()
	scr.arena.reset()
	keyBuf, merged := scr.keyBuf, scr.merged
	var cacheLookups, cacheHits, conflicts, unsat int64
	var solveTime time.Duration
	var keys [4]uint64
	computeStart := time.Now()
	for _, e1 := range firsts {
		idxs, mp := lookup(e1.Dst)
		if mp == nil {
			continue
		}
		for _, k := range idxs {
			e2 := &mp.edges[k]
			if seen && e1.Gen <= last && e2.Gen <= last {
				continue // both sides already joined in a prior iteration
			}
			heads := en.g.MatchBinary(e1.Label, e2.Label)
			if len(heads) == 0 {
				continue
			}
			// Merge into the chunk's scratch encoding: only a candidate
			// that survives the dedupe pre-check and the unsat check is
			// copied, into the chunk's arena, and only an edge insert
			// keeps gets an allocation of its own.
			m, ok := en.ic.MergeInto(merged, e1.Enc, e2.Enc)
			if !ok {
				conflicts++
				continue
			}
			merged = m
			var rel fsm.Rel
			if en.opts.UseRel {
				rel = fsm.Compose(e1.Rel, e2.Rel)
			}
			// Global-dedupe pre-check. Each head's key is computed once
			// here and carried into insert, which re-checks it against
			// edges inserted earlier in the same superstep.
			cand := storage.Edge{Src: e1.Src, Dst: e2.Dst, Gen: gen,
				HasRel: en.opts.UseRel, Rel: rel, Enc: merged}
			hkeys := keys[:0]
			allDup := true
			for _, h := range heads {
				cand.Label = h
				key := cand.Key()
				hkeys = append(hkeys, key)
				if allDup && !en.hasKey(key, &cand) {
					allDup = false
				}
			}
			if allDup {
				continue
			}
			if len(merged) > 0 {
				// Constraint memoization keyed by the encoded path (paper
				// §4.3: "using encoded paths as the keys"): a hit skips
				// both decoding and solving. The key is encoded into the
				// chunk's scratch buffer and probed by bytes, so a probe
				// costs no allocation; the key string only materializes
				// when a miss inserts a new entry.
				var verdict smt.Result
				hit := false
				if en.cache != nil {
					cacheLookups++
					keyBuf = append(keyBuf[:0], en.opts.CacheKeyPrefix...)
					keyBuf = appendEncCacheKey(keyBuf, merged)
					if verdict, hit = en.cache.GetBytes(keyBuf); hit {
						cacheHits++
					}
				}
				if !hit {
					decodeStart := time.Now()
					conj, derr := en.ic.Decode(merged)
					en.bd.AddDecode(time.Since(decodeStart))
					verdict = smt.Sat
					if derr == nil && len(conj) > 0 {
						solveStart := time.Now()
						verdict = solver.S.Solve(conj)
						d := time.Since(solveStart)
						en.bd.AddSolve(d)
						solveTime += d
						en.solve.Observe(d)
					}
					if en.cache != nil {
						en.cache.PutBytes(keyBuf, verdict)
					}
				}
				if verdict == smt.Unsat {
					unsat++
					continue
				}
			}
			cand.Enc = scr.arena.alloc(len(merged))
			copy(cand.Enc, merged)
			for hi, h := range heads {
				cand.Label = h
				scr.out.alloc(1)[0] = candidate{edge: cand, key: hkeys[hi]}
			}
		}
	}
	en.bd.AddCompute(time.Since(computeStart))
	scr.keyBuf, scr.merged = keyBuf, merged
	en.mu.Lock()
	en.stats.ConstraintsSolved += solver.S.Calls
	en.stats.CacheLookups += cacheLookups
	en.stats.CacheHits += cacheHits
	en.stats.RejectedConflict += conflicts
	en.stats.RejectedUnsat += unsat
	en.stats.SolveTime += solveTime
	en.mu.Unlock()
}

// hasKey reports whether k, the key of e, is in the dedupe index. It does
// not take en.mu. This is safe because of a single-writer invariant:
// en.keys is written only on the run goroutine (preprocess, journal restore
// and insert, all through addKey), and insert runs only after processPair's
// wg.Wait, so while join goroutines read the map no one writes it, and the
// goroutine start and wg.Wait order every write before or after the reads.
func (en *Engine) hasKey(k uint64, e *storage.Edge) bool {
	_, ok := en.keys[k]
	if ok && keyAudit != nil {
		keyAudit(en, *e, k, false)
	}
	return ok
}

// addKey records k, the key of e, in the dedupe index. Run goroutine only.
func (en *Engine) addKey(k uint64, e *storage.Edge) {
	en.keys[k] = struct{}{}
	if keyAudit != nil {
		keyAudit(en, *e, k, true)
	}
}

// insert adds one induced edge (and its unary/mirror derivatives) to its
// owning partition, honoring the per-endpoint variant cap. It returns how
// many variants it widened. The candidate's Enc points into a join chunk's
// arena, which the next superstep overwrites, so the first variant kept
// with that encoding copies it out and the others share the copy.
func (en *Engine) insert(c *candidate) int64 {
	var widened int64
	var owned cfet.Enc
	for _, ve := range en.expand(c.edge, c.key) {
		v, k := ve.edge, ve.key
		if en.hasKey(k, &v) {
			continue
		}
		ep := v.Endpoint()
		if en.variants[ep] >= en.opts.MaxVariants && len(v.Enc) > 0 {
			// Widen: drop interval (branch) precision but keep call/return
			// structure — erasing it would let composed paths enter a
			// callee through one call-edge instance and exit through
			// another, stitching execution fragments no single run can
			// connect. Only past twice the cap does the edge widen to the
			// fully unconstrained variant.
			if sk := v.Enc.Skeleton(); len(sk) > 0 && en.variants[ep] < 2*en.opts.MaxVariants {
				v.Enc = sk
			} else {
				v.Enc = nil
			}
			k = v.Key()
			if en.hasKey(k, &v) {
				continue
			}
			widened++
		} else {
			if owned == nil {
				owned = v.Enc.Clone()
			}
			v.Enc = owned
		}
		en.addKey(k, &v)
		en.variants[ep]++
		sz := storage.RecordSize(&v)
		owner := en.partOf(v.Src)
		if mp, ok := en.loaded[owner]; ok {
			mp.add(v, sz)
			continue
		}
		// Buffer for an unloaded partition ("new edges are written into the
		// partitions that contain their source vertices").
		en.pending[owner] = append(en.pending[owner], v)
		meta := en.parts[owner]
		meta.edges++
		meta.bytes += sz
		if v.Gen > meta.maxGen {
			meta.maxGen = v.Gen
		}
	}
	return widened
}

// repartition splits partition idx at its median source vertex (paper §4.3
// "oversized partitions get dynamically repartitioned").
func (en *Engine) repartition(idx int) error {
	mp, ok := en.loaded[idx]
	if !ok {
		return nil
	}
	meta := mp.meta
	if meta.hi-meta.lo <= 1 || len(mp.edges) < 2 {
		return nil // cannot split a single-vertex interval
	}
	srcs := make([]uint32, len(mp.edges))
	for i := range mp.edges {
		srcs[i] = mp.edges[i].Src
	}
	sort.Slice(srcs, func(a, b int) bool { return srcs[a] < srcs[b] })
	mid := srcs[len(srcs)/2]
	if mid <= meta.lo {
		mid = meta.lo + (meta.hi-meta.lo)/2
	}
	if mid <= meta.lo || mid >= meta.hi {
		return nil
	}
	en.mu.Lock()
	en.stats.Repartitions++
	en.mu.Unlock()

	// Low half stays in the existing partition; the high half becomes a new
	// partition appended at the end of the table. Vertex->partition mapping
	// uses interval search, so ordering of en.parts by interval must be
	// maintained: insert the new partition right after idx.
	var loEdges, hiEdges []storage.Edge
	var loBytes, hiBytes int64
	var loGen, hiGen uint32
	for i := range mp.edges {
		sz := storage.RecordSize(&mp.edges[i])
		if mp.edges[i].Src < mid {
			loEdges = append(loEdges, mp.edges[i])
			loBytes += sz
			if mp.edges[i].Gen > loGen {
				loGen = mp.edges[i].Gen
			}
		} else {
			hiEdges = append(hiEdges, mp.edges[i])
			hiBytes += sz
			if mp.edges[i].Gen > hiGen {
				hiGen = mp.edges[i].Gen
			}
		}
	}
	newMeta := &partMeta{
		id:    en.nextPartID(),
		lo:    mid,
		hi:    meta.hi,
		path:  en.partPath(),
		edges: int64(len(hiEdges)), bytes: hiBytes, maxGen: hiGen,
	}
	meta.hi = mid
	meta.edges = int64(len(loEdges))
	meta.bytes = loBytes
	meta.maxGen = loGen
	if en.jw != nil {
		// Shrinking the low half under its original path would be the one
		// write that destroys a checkpointed file prefix. Redirect the
		// survivor to a fresh path instead: the pre-split file stays frozen
		// on disk (the last journal record still references it) until a
		// newer record supersedes it. Repartitions is already incremented,
		// so the suffix is unique for the run.
		meta.path = filepath.Join(en.opts.Dir,
			fmt.Sprintf("part-%06d-r%06d.edges", meta.id, en.stats.Repartitions))
	}

	// Persist the new partition; keep the low half loaded.
	ioStart := time.Now()
	n, err := storage.WritePart(newMeta.path, hiEdges, storage.PartInfo{Lo: newMeta.lo, Hi: newMeta.hi})
	if err != nil {
		return err
	}
	d := time.Since(ioStart)
	en.bd.AddIO(d)
	en.io.AddWrite(n)
	en.traceIO("write", newMeta.id, n, d)
	if en.opts.Trace.Enabled() {
		en.opts.Trace.Instant(en.opts.TraceTID, "engine", "repartition",
			trace.Args{"part": meta.id, "newPart": newMeta.id, "mid": mid})
	}

	mp.edges = loEdges
	mp.bySrc = en.buildBySrc(loEdges)
	mp.dirty = true

	// Insert newMeta right after idx to keep interval order.
	en.mu.Lock()
	en.parts = append(en.parts, nil)
	copy(en.parts[idx+2:], en.parts[idx+1:])
	en.parts[idx+1] = newMeta
	en.mu.Unlock()

	// Loaded and pending maps are indexed by position; remap anything at or
	// beyond the insertion point.
	en.remapAfterInsert(idx + 1)
	return nil
}

func (en *Engine) nextPartID() int {
	max := -1
	for _, p := range en.parts {
		if p.id > max {
			max = p.id
		}
	}
	return max + 1
}

func (en *Engine) partPath() string {
	return en.opts.Dir + "/" + "part-" + itoa6(en.nextPartID()) + ".edges"
}

func itoa6(n int) string {
	buf := []byte("000000")
	for i := 5; i >= 0 && n > 0; i-- {
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf)
}

// remapAfterInsert shifts position-indexed maps after inserting a partition
// at position pos.
func (en *Engine) remapAfterInsert(pos int) {
	newLoaded := make(map[int]*memPart, len(en.loaded))
	for idx, mp := range en.loaded {
		if idx >= pos {
			newLoaded[idx+1] = mp
		} else {
			newLoaded[idx] = mp
		}
	}
	en.loaded = newLoaded
	newPending := make(map[int][]storage.Edge, len(en.pending))
	for idx, p := range en.pending {
		if idx >= pos {
			newPending[idx+1] = p
		} else {
			newPending[idx] = p
		}
	}
	en.pending = newPending
	for k, idx := range en.hot {
		if idx >= pos {
			en.hot[k] = idx + 1
		}
	}
	// lastGen is keyed by stable partition IDs, not positions: safe. The
	// prefetcher is keyed by *partMeta pointers, equally stable.
}

// ForEach streams every edge of the closed graph from disk (after Run).
func (en *Engine) ForEach(f func(*storage.Edge) bool) error {
	for _, meta := range en.parts {
		edges, _, _, err := storage.ReadPart(meta.path, nil)
		if err != nil {
			return err
		}
		for i := range edges {
			if !f(&edges[i]) {
				return nil
			}
		}
	}
	return nil
}

// EdgesAfter counts all edges on disk (after Run).
func (en *Engine) EdgesAfter() int64 {
	var n int64
	for _, meta := range en.parts {
		n += meta.edges
	}
	return n
}

package engine_test

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"github.com/grapple-system/grapple"
	"github.com/grapple-system/grapple/internal/engine"
	"github.com/grapple-system/grapple/internal/storage"
	"github.com/grapple-system/grapple/internal/workload"
)

// keyAuditor shadows every engine's dedupe index with the full edges the
// keys were computed from. The engine treats a 64-bit storage.Edge.Key as
// an edge's identity, so a probe that finds its key for a different edge
// (a collision) would silently drop that edge; the auditor records it.
type keyAuditor struct {
	mu     sync.Mutex
	byEng  map[*engine.Engine]map[uint64]storage.Edge
	added  int64
	probes int64
	bad    []string
}

func (a *keyAuditor) observe(en *engine.Engine, e storage.Edge, k uint64, added bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	index := a.byEng[en]
	if index == nil {
		index = map[uint64]storage.Edge{}
		a.byEng[en] = index
	}
	prev, ok := index[k]
	if added {
		a.added++
		if ok {
			a.fail("key %#x added twice: %+v then %+v", k, prev, e)
			return
		}
		e.Gen = 0
		e.Enc = e.Enc.Clone() // join candidates' encodings live in reused scratch
		index[k] = e
		return
	}
	a.probes++
	switch {
	case !ok:
		a.fail("probe found key %#x the index never added: %+v", k, e)
	case !sameIdentity(prev, e):
		a.fail("distinct edges share key %#x:\n  kept    %+v\n  dropped %+v", k, prev, e)
	}
}

func (a *keyAuditor) fail(format string, args ...any) {
	if len(a.bad) < 5 {
		a.bad = append(a.bad, fmt.Sprintf(format, args...))
	}
}

// sameIdentity compares every field storage.Edge.Key covers.
func sameIdentity(a, b storage.Edge) bool {
	if a.Src != b.Src || a.Dst != b.Dst || a.Label != b.Label || a.HasRel != b.HasRel {
		return false
	}
	return (!a.HasRel || a.Rel == b.Rel) && a.Enc.Equal(b.Enc)
}

// TestEdgeKeyAudit closes every golden subject (the simulated workload
// profiles and the real-Go self-check packages) with the auditor watching
// every dedupe decision, and requires that every probe that found its key
// found it for the same edge: no two distinct edges share a key, so dedupe
// dropped nothing it should have kept.
func TestEdgeKeyAudit(t *testing.T) {
	type subject struct {
		name string
		run  func(workDir string) error
	}
	var subjects []subject
	for _, p := range workload.Profiles() {
		s := workload.Generate(p)
		subjects = append(subjects, subject{p.Name, func(dir string) error {
			_, err := grapple.Check(s.Source, grapple.BuiltinCheckers(), grapple.Options{WorkDir: dir})
			return err
		}})
	}
	for _, g := range []struct {
		name, dir string
		packs     []string
	}{
		{"go-storage", filepath.Join("..", "storage"), []string{"file-handle"}},
		{"go-engine-sync", ".", []string{"mutex", "context-cancel"}},
		{"go-trace-sync", filepath.Join("..", "trace"), []string{"mutex", "context-cancel"}},
	} {
		subjects = append(subjects, subject{g.name, func(dir string) error {
			_, _, err := grapple.CheckGoPackage(g.dir, g.packs, grapple.Options{WorkDir: dir})
			return err
		}})
	}
	for _, s := range subjects {
		t.Run(s.name, func(t *testing.T) {
			a := &keyAuditor{byEng: map[*engine.Engine]map[uint64]storage.Edge{}}
			engine.SetKeyAudit(a.observe)
			defer engine.SetKeyAudit(nil)
			if err := s.run(t.TempDir()); err != nil {
				t.Fatal(err)
			}
			for _, msg := range a.bad {
				t.Error(msg)
			}
			if a.added == 0 {
				t.Fatal("audit saw no inserts: the closure did not run through the dedupe index")
			}
			t.Logf("%d engines, %d edges indexed, %d dedupe hits checked", len(a.byEng), a.added, a.probes)
		})
	}
}

// TestKeyAuditorFlagsCollision feeds the auditor a forced collision: a
// probe that finds a key for an edge other than the one indexed under it.
func TestKeyAuditorFlagsCollision(t *testing.T) {
	a := &keyAuditor{byEng: map[*engine.Engine]map[uint64]storage.Edge{}}
	kept := storage.Edge{Src: 1, Dst: 2, Label: 3}
	other := storage.Edge{Src: 1, Dst: 2, Label: 4}
	a.observe(nil, kept, 7, true)
	same := kept
	same.Gen = 9 // Gen is not identity
	a.observe(nil, same, 7, false)
	if len(a.bad) != 0 {
		t.Fatalf("same edge flagged: %v", a.bad)
	}
	a.observe(nil, other, 7, false)
	if len(a.bad) != 1 {
		t.Fatalf("collision not flagged: %v", a.bad)
	}
}

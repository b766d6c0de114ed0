package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/grapple-system/grapple/internal/engine"
	"github.com/grapple-system/grapple/internal/smt"
	"github.com/grapple-system/grapple/internal/storage"
)

// HotpathRow is one subject's hot-path measurement: the zero-copy v2
// decode path, and the cost of the pooled edge join.
type HotpathRow struct {
	Subject string `json:"subject"`

	// Decode side: reading the subject's alias-graph edges back from one v2
	// partition file.
	Records           int64   `json:"records"`
	DecodeNsZeroCopy  float64 `json:"decode_ns_per_record_zero_copy"`
	AllocsRecZeroCopy float64 `json:"allocs_per_record_zero_copy"`

	// Join side: closing the alias graph.
	InducedEdges int64         `json:"induced_edges"`
	JoinNsPooled float64       `json:"join_ns_per_edge_pooled"`
	WallPooled   time.Duration `json:"wall_pooled_ns"`
}

// hotpathJoinBudget matches the I/O table's out-of-core budget: small enough
// that the join actually cycles partitions through the pools every
// superstep instead of staying resident.
const hotpathJoinBudget = 4 << 20

// HotpathTable measures both hot paths for the named subjects (default: all
// four profiles).
func HotpathTable(names []string, workDir string) (string, []HotpathRow, error) {
	if len(names) == 0 {
		names = SubjectNames()
	}
	var rows []HotpathRow
	for _, name := range names {
		row, err := runHotpath(name, workDir)
		if err != nil {
			return "", nil, err
		}
		rows = append(rows, row)
	}

	var b strings.Builder
	b.WriteString("Hot paths: zero-copy v2 decode per record, and the pooled join's cost per induced edge.\n")
	fmt.Fprintf(&b, "%-15s %8s %10s %9s | %9s %12s\n",
		"Subject", "records", "ns/rec", "alloc/rec", "induced", "ns/join")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-15s %8d %10.0f %9.3f | %9d %12.0f\n",
			r.Subject, r.Records, r.DecodeNsZeroCopy, r.AllocsRecZeroCopy,
			r.InducedEdges, r.JoinNsPooled)
	}
	return b.String(), rows, nil
}

func runHotpath(name, workDir string) (HotpathRow, error) {
	ic, ag, err := aliasGraphFor(name)
	if err != nil {
		return HotpathRow{}, err
	}
	row := HotpathRow{Subject: name, Records: int64(len(ag.Edges))}

	dir, err := os.MkdirTemp(workDir, "grapple-hotpath-*")
	if err != nil {
		return HotpathRow{}, err
	}
	defer os.RemoveAll(dir)

	// Decode side: one v2 partition file holding the subject's initial alias
	// edges, read back.
	path := filepath.Join(dir, "decode.edges")
	if _, err := storage.WritePart(path, ag.Edges, storage.PartInfo{Lo: 0, Hi: ag.NumVerts}); err != nil {
		return HotpathRow{}, err
	}
	row.DecodeNsZeroCopy, row.AllocsRecZeroCopy, err = measureDecode(path, len(ag.Edges))
	if err != nil {
		return HotpathRow{}, err
	}

	// Join side: close the alias graph.
	en := engine.New(ic, ag.Ptr.G, engine.Options{
		Dir:          filepath.Join(dir, "join"),
		MemoryBudget: hotpathJoinBudget,
		SolverOpts:   smt.DefaultOptions(),
	}, nil)
	start := time.Now()
	st, err := en.Run(cloneEdges(ag.Edges), ag.NumVerts)
	if err != nil {
		return HotpathRow{}, err
	}
	row.WallPooled = time.Since(start)
	row.InducedEdges = st.EdgesAfter - st.EdgesBefore
	if row.InducedEdges > 0 {
		row.JoinNsPooled = float64(row.WallPooled.Nanoseconds()) / float64(row.InducedEdges)
	}
	return row, nil
}

// measureDecode reads path best-of-three, returning
// ns/record and allocs/record. Allocation counts come from the runtime's
// Mallocs counter around each pass; the minimum over passes discards GC and
// scheduler noise.
func measureDecode(path string, records int) (nsPerRec, allocsPerRec float64, err error) {
	if records == 0 {
		return 0, 0, nil
	}
	dst := make([]storage.Edge, 0, records)
	// Warmup pass: page cache, dst capacity.
	if dst, _, _, err = storage.ReadPart(path, dst[:0]); err != nil {
		return 0, 0, err
	}
	bestNs, bestAllocs := float64(0), float64(0)
	var ms runtime.MemStats
	for pass := 0; pass < 3; pass++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		start := time.Now()
		if dst, _, _, err = storage.ReadPart(path, dst[:0]); err != nil {
			return 0, 0, err
		}
		wall := time.Since(start)
		runtime.ReadMemStats(&ms)
		ns := float64(wall.Nanoseconds()) / float64(records)
		allocs := float64(ms.Mallocs-before) / float64(records)
		if pass == 0 || ns < bestNs {
			bestNs = ns
		}
		if pass == 0 || allocs < bestAllocs {
			bestAllocs = allocs
		}
	}
	return bestNs, bestAllocs, nil
}

// WriteHotpathJSON records the table's rows as machine-readable JSON (the
// BENCH_hotpath.json artifact `make bench-hotpath` commits next to
// EXPERIMENTS.md).
func WriteHotpathJSON(path string, rows []HotpathRow) error {
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

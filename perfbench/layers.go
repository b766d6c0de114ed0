package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"github.com/grapple-system/grapple/internal/checker"
	"github.com/grapple-system/grapple/internal/gofront"
	"github.com/grapple-system/grapple/internal/scheduler"
)

type metricDef struct {
	name, unit string
}

// perLayer lists the metrics a --trace 1 run prints, in order.
var perLayer = []metricDef{
	{"lang.parse_s", "s"}, {"lang.resolve_s", "s"}, {"ir.lower_s", "s"},
	{"gofront.lower_s", "s"}, {"gofront.functions", "count"}, {"gofront.havocs", "count"},
	{"analysis.prune_s", "s"}, {"analysis.slice_s", "s"}, {"analysis.conds_decided", "count"},
	{"analysis.sliced_functions", "count"}, {"analysis.sliced_branches", "count"},
	{"cfet.build_s", "s"}, {"cfet.paths", "count"},
	{"pgraph.clone_s", "s"}, {"pgraph.alias_edges", "count"}, {"pgraph.dataflow_build_s", "s"},
	{"pgraph.dataflow_edges", "count"}, {"pgraph.tracked_objects", "count"},
	{"engine.alias_s", "s"}, {"engine.dataflow_s", "s"}, {"engine.supersteps", "count"},
	{"engine.superstep_p50_ms", "ms"}, {"engine.edges_induced", "count"},
	{"engine.dataflow_edges_after", "count"},
	{"engine.rejected_unsat", "count"}, {"engine.rejected_conflict", "count"},
	{"engine.widened", "count"}, {"engine.useful_ratio", "ratio"}, {"engine.ns_per_edge", "ns/edge"},
	{"engine.partitions", "count"}, {"engine.repartitions", "count"},
	{"storage.read_mib", "MiB"}, {"storage.write_mib", "MiB"}, {"storage.loads", "count"},
	{"storage.evictions", "count"}, {"storage.prefetch_hit_ratio", "ratio"},
	{"smt.solves", "count"}, {"smt.cache_hit_ratio", "ratio"}, {"smt.solve_s", "s"}, {"smt.solve_share", "ratio"},
	{"checker.extract_flows_s", "s"}, {"checker.fsm_check_s", "s"}, {"checker.untraced_s", "s"},
	{"checker.reports", "count"},
	{"scheduler.instances", "count"}, {"scheduler.queue_wait_s", "s"}, {"scheduler.max_run_s", "s"},
	{"scheduler.frontend_prepares", "count"}, {"scheduler.busy_ratio", "ratio"},
	{"runtime.alloc_mib", "MiB"}, {"runtime.allocs", "count"}, {"runtime.gc_cycles", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// layerCounts accumulates the per-layer counts of one traced check from
// the values the layers return. Times come from spans (spanTimes).
type layerCounts struct {
	v map[string]float64
}

func (l *layerCounts) add(name string, x float64) {
	if l.v == nil {
		l.v = map[string]float64{}
	}
	l.v[name] += x
}

func (l *layerCounts) max(name string, x float64) {
	if l.v == nil {
		l.v = map[string]float64{}
	}
	if x > l.v[name] {
		l.v[name] = x
	}
}

// addResult folds one checker result in. withAlias is false for batch
// instances whose subject's shared alias phase was already counted.
func (l *layerCounts) addResult(res *checker.Result, withAlias bool) {
	phases := []checker.PhaseStats{res.Dataflow}
	if withAlias {
		phases = append(phases, res.Alias)
		l.add("analysis.conds_decided", float64(res.CondsDecided))
		l.add("analysis.sliced_functions", float64(res.Alias.SlicedFunctions))
		l.add("analysis.sliced_branches", float64(res.Alias.SlicedBranches))
		l.add("cfet.paths", float64(res.Alias.CFETPaths))
		l.add("pgraph.alias_edges", float64(res.Alias.EdgesBefore))
	}
	l.add("pgraph.dataflow_edges", float64(res.Dataflow.EdgesBefore))
	l.add("pgraph.tracked_objects", float64(res.TrackedObjects))
	l.add("engine.dataflow_edges_after", float64(res.Dataflow.EdgesAfter))
	for _, p := range phases {
		l.add("engine.edges_induced", float64(p.EdgesAfter-p.EdgesBefore))
		l.add("engine.rejected_unsat", float64(p.RejectedUnsat))
		l.add("engine.rejected_conflict", float64(p.RejectedConflict))
		l.add("engine.widened", float64(p.Widened))
		l.max("engine.partitions", float64(p.Partitions))
		l.add("engine.repartitions", float64(p.Repartitions))
		l.add("storage.read_mib", float64(p.IO.BytesRead)/(1<<20))
		l.add("storage.write_mib", float64(p.IO.BytesWritten)/(1<<20))
		l.add("storage.loads", float64(p.IO.Loads))
		l.add("storage.evictions", float64(p.IO.Evictions))
		l.add("storage.prefetch_issued", float64(p.IO.PrefetchIssued))
		l.add("storage.prefetch_hits", float64(p.IO.PrefetchHits))
		l.add("smt.solves", float64(p.ConstraintsSolved))
		l.add("smt.cache_lookups", float64(p.CacheLookups))
		l.add("smt.cache_hits", float64(p.CacheHits))
		l.add("smt.solve_s", p.SolveTime.Seconds())
	}
	bd := res.Breakdown
	l.add("smt.breakdown_solve", bd.Solve.Seconds())
	l.add("smt.breakdown_total", (bd.IO + bd.Decode + bd.Solve + bd.Compute).Seconds())
	l.add("checker.reports", float64(len(res.Reports)))
}

func (l *layerCounts) gofront(g *gofront.Result) {
	l.add("gofront.functions", float64(g.Stats.Functions))
	l.add("gofront.havocs", float64(g.Stats.Havocs))
}

// sched records the batch scheduler's counters. The batch's SMT cache is
// shared, so its own hit ratio replaces the per-engine sums.
func (l *layerCounts) sched(res *scheduler.BatchResult, nworkers int, wall float64) {
	l.add("scheduler.instances", float64(len(res.Instances)))
	l.add("scheduler.queue_wait_s", res.Sched.TotalWait.Seconds())
	l.add("scheduler.max_run_s", res.Sched.MaxRun.Seconds())
	l.add("scheduler.frontend_prepares", float64(res.FrontendPrepares))
	if wall > 0 {
		l.add("scheduler.busy_ratio", res.Sched.TotalRun.Seconds()/(float64(nworkers)*wall))
	}
	l.v["smt.cache_lookups"] = float64(res.CacheLookups)
	l.v["smt.cache_hits"] = float64(res.CacheHits)
}

// spanLayer maps a trace span (category/name) to the per-layer time metric
// it measures. Spans not listed (engine supersteps, preprocess and
// checkpoints) belong to their parent's layer. checker.untraced_s is the
// time inside the benchmark's checker spans, or the scheduler's instance
// spans, that no program span covers: call-graph construction, escape and
// MHP analysis, and in a batch each subject's parse.
var spanLayer = map[string]string{
	"bench/lang.parse":        "lang.parse_s",
	"bench/lang.resolve":      "lang.resolve_s",
	"bench/ir.lower":          "ir.lower_s",
	"bench/gofront.lower":     "gofront.lower_s",
	"bench/checker.prepare":   "checker.untraced_s",
	"bench/checker.check":     "checker.untraced_s",
	"scheduler/instance":      "checker.untraced_s",
	"checker/pre-analysis":    "analysis.prune_s",
	"checker/points-to+slice": "analysis.slice_s",
	"checker/cfet-build":      "cfet.build_s",
	"checker/context-clone":   "pgraph.clone_s",
	"checker/phase.alias":     "engine.alias_s",
	"checker/extract-flows":   "checker.extract_flows_s",
	"checker/dataflow-build":  "pgraph.dataflow_build_s",
	"checker/phase.dataflow":  "engine.dataflow_s",
	"checker/fsm-check":       "checker.fsm_check_s",
}

type chromeSpan struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Tid  uint64  `json:"tid"`
}

// spanTimes parses a Chrome trace document and returns each layer's self
// time in seconds: a span's duration minus the parts of it covered by child
// spans that map to a different layer metric. Spans nest by time on one
// thread lane. It also returns the superstep durations.
func spanTimes(doc []byte) (map[string]float64, []time.Duration, error) {
	var d struct {
		TraceEvents []chromeSpan `json:"traceEvents"`
	}
	if err := json.Unmarshal(doc, &d); err != nil {
		return nil, nil, fmt.Errorf("parse trace: %w", err)
	}
	byTid := map[uint64][]chromeSpan{}
	var steps []time.Duration
	for _, ev := range d.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		byTid[ev.Tid] = append(byTid[ev.Tid], ev)
		if ev.Cat == "engine" && ev.Name == "superstep" {
			steps = append(steps, time.Duration(ev.Dur*1e3))
		}
	}
	out := map[string]float64{}
	for _, spans := range byTid {
		sort.Slice(spans, func(i, j int) bool {
			if spans[i].Ts != spans[j].Ts {
				return spans[i].Ts < spans[j].Ts
			}
			return spans[i].Dur > spans[j].Dur
		})
		// Walk the lane with a stack of open spans; each span's metric is
		// the nearest enclosing span's that maps to one.
		type open struct {
			end    float64
			metric string
		}
		var stack []open
		for _, sp := range spans {
			for len(stack) > 0 && sp.Ts >= stack[len(stack)-1].end {
				stack = stack[:len(stack)-1]
			}
			parent := ""
			if len(stack) > 0 {
				parent = stack[len(stack)-1].metric
			}
			metric, mapped := spanLayer[sp.Cat+"/"+sp.Name]
			if !mapped {
				metric = parent
			}
			if metric != parent {
				out[metric] += sp.Dur / 1e6
				if parent != "" {
					out[parent] -= sp.Dur / 1e6
				}
			}
			stack = append(stack, open{end: sp.Ts + sp.Dur, metric: metric})
		}
	}
	delete(out, "")
	return out, steps, nil
}

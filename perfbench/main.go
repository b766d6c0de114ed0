// Command perfbench is Grapple's end-to-end, layer-by-layer benchmark.
//
// One run measures one workload for a fixed number of seconds in a single
// process and prints, as its last line, a JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones, measured through the public entry points
// (grapple.Check, grapple.CheckAll, grapple.CheckGoPackage) with tracing
// off. With --trace 1 they are the per-layer ones: the same pipeline runs
// layer by layer with a trace recorder on in-memory buffers, the
// benchmark's own spans wrap each public layer call, and untraced checks
// alternate with traced ones so the tracing overhead is measured too.
//
// Every check's reports are verified against a reference that does not
// come from the checker: the generator's planted seeds for the simulated
// subjects, and the empty report stream for the frozen Go snapshot. Any
// error or wrong verdict counts as failed and makes the exit status 1.
//
// Run it from the repository root through perfbench/run.sh, which builds
// this module and keeps every file it writes under .bench_build/.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/grapple-system/grapple/internal/trace"
)

const (
	// defaultSeed is hdfs-sim's own generator seed; heldOutSeed is kept
	// for confirming claims on inputs no change was tuned against.
	defaultSeed = 1003
	heldOutSeed = 99

	// Set-up runs in setupBlocks blocks of setupBlockReps repetitions;
	// setup_s is the median over blocks of a block's time per repetition.
	// One set-up takes milliseconds; the median of 40 single repetitions
	// spread 0.14-0.36 across seeds, the median of blocks 0.13-0.20.
	setupBlocks    = 8
	setupBlockReps = 25
	// minChecks is the fewest timed checks a run makes, whatever its
	// length.
	minChecks = 3
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // the benchmark's directory (holds testdata)
	state    string // where work directories and report digests live
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, fmt.Sprintf("generator seed (default %d; held-out %d)", defaultSeed, heldOutSeed))
	flag.Float64Var(&cfg.seconds, "seconds", 10, "how long to measure")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.StringVar(&cfg.root, "root", "perfbench", "benchmark directory")
	flag.StringVar(&cfg.state, "state", filepath.Join(".bench_build", "state"), "state directory for work dirs and digests")
	flag.Parse()
	cfg.trace = traceFlag == 1
	w, ok := workloadByName(cfg.workload)
	if !ok || flag.NArg() > 0 || (traceFlag != 0 && traceFlag != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload {%s} [--seed n] [--seconds s] [--trace 0|1]\n",
			strings.Join(workloadNames(), "|"))
		return 2
	}
	res, err := measure(cfg, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally accumulates outcomes and checks that every check of a job in this
// run, and in every earlier run of the same build, produced the same
// reports.
type tally struct {
	attempted, failed int
	problems          []string
	digests           map[string]string // job key -> report digest
}

func (t *tally) add(j job, o *outcome) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.problems = append(t.problems, o.problems...)
	if o.digest == "" {
		return
	}
	if t.digests == nil {
		t.digests = map[string]string{}
	}
	if prev, ok := t.digests[j.key]; !ok {
		t.digests[j.key] = o.digest
	} else if o.digest != prev {
		t.failed++
		t.problems = append(t.problems, fmt.Sprintf("%s: report digest %s differs from this run's first %s", j.key, o.digest, prev))
	}
}

// crossRun compares each job's report digest with the one an earlier run
// of the same build recorded under the same key, and records it when none
// exists. The two hdfs-sim workloads share keys: the memory budget must not
// change the reports. Digests are kept per build, because a correct change
// to the program may pick another witness for the same report.
func (t *tally) crossRun(state string) error {
	build, err := buildID()
	if err != nil {
		return err
	}
	dir := filepath.Join(state, "digests", build)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for key, sum := range t.digests {
		path := filepath.Join(dir, key+".sha256")
		prev, err := os.ReadFile(path)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			if err := os.WriteFile(path, []byte(sum+"\n"), 0o644); err != nil {
				return err
			}
			continue
		case err != nil:
			return err
		}
		if got := strings.TrimSpace(string(prev)); got != sum {
			t.failed++
			t.problems = append(t.problems, fmt.Sprintf("%s: report digest %s differs from %s recorded in %s", key, sum, got, path))
		}
	}
	return nil
}

// buildID names this build of the benchmark and the program: a prefix of
// the SHA-256 of the running executable.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8]), nil
}

// measure runs set-up, then rounds of checks until the time is up, and
// returns the run's result.
func measure(cfg config, w spec) (*result, error) {
	base := filepath.Join(cfg.state, "work", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	defer os.RemoveAll(base)
	in, setup, err := setUp(cfg, w, base)
	if err != nil {
		return nil, err
	}
	fmt.Printf("workload %s seed %d trace %v, %d job(s) a round: %s\n", w.name, cfg.seed, cfg.trace, len(in), w.why)
	var t tally
	var metrics []metricValue
	if cfg.trace {
		metrics, err = layerRun(cfg, w, in[0], base, &t)
	} else {
		metrics, err = endToEndRun(cfg, w, in, base, setup, &t)
	}
	if err != nil {
		return nil, err
	}
	if err := t.crossRun(cfg.state); err != nil {
		return nil, err
	}
	for _, p := range t.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}
	res := &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	for _, m := range metrics {
		res.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
		fmt.Printf("  %-28s %14.6g %-8s %s\n", m.name, m.value, m.unit, m.note)
	}
	if !cfg.trace {
		if w.name == "batch-mixed" {
			fmt.Printf("  %-28s %14.6g %-8s (batch makespan, reported as check_s)\n", "batch_s", res.Metrics["check_s"].Value, "s")
		}
		fmt.Printf("  %-28s %14.6g %-8s (%d of %d)\n", "failed_ratio", float64(t.failed)/float64(t.attempted), "ratio", t.failed, t.attempted)
	}
	return res, nil
}

type metricValue struct {
	name, unit string
	value      float64
	note       string
}

// check runs one untraced check of j in a fresh work directory under the
// resource probes.
func check(cfg config, w spec, j job, dir string, t *tally) (wall float64, u usage, o *outcome, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, u, nil, err
	}
	p := startProbe()
	t0 := time.Now()
	o = w.check(j, dir)
	wall = time.Since(t0).Seconds()
	u = p.finish()
	t.add(j, o)
	fmt.Fprintf(os.Stderr, "perfbench: %s: %.3fs, %d edges, peak heap %.1f MiB\n", j.key, wall, o.induced, float64(u.PeakHeap)/(1<<20))
	return wall, u, o, os.RemoveAll(dir)
}

// endToEndRun checks every job once per round, until the time is up. A sim
// or batch round takes most of a run, so most runs make one round. The
// time metrics are medians over the run's checks (edges_per_s: each
// check's edges over its wall time), so one check that a busy host stalls
// does not move them. The peak heap is the mean over the checks: one
// check's reading moves by up to ±20% with when GC cycles land, and a
// median of such readings jumps between the two levels from run to run.
func endToEndRun(cfg config, w spec, in input, base string, setup []float64, t *tally) ([]metricValue, error) {
	var walls, cpus, rates []float64
	var peak float64
	limit := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	for round := 1; ; round++ {
		for i, j := range in {
			dt, u, o, err := check(cfg, w, j, filepath.Join(base, fmt.Sprintf("check-%d-%d", round, i)), t)
			if err != nil {
				return nil, err
			}
			walls = append(walls, dt)
			cpus = append(cpus, u.CPU.Seconds())
			rates = append(rates, float64(o.induced)/dt)
			peak += float64(u.PeakHeap) / (1 << 20)
		}
		if done(round*len(in), round, time.Since(start), limit) {
			break
		}
	}
	return []metricValue{
		{"check_s", "s", median(walls), describe(walls)},
		{"cpu_s", "s", median(cpus), describe(cpus)},
		{"edges_per_s", "edges/s", median(rates), describe(rates)},
		{"peak_heap_mib", "MiB", peak / float64(len(walls)), fmt.Sprintf("(mean of %d)", len(walls))},
		{"setup_s", "s", median(setup), describe(setup)},
	}, nil
}

// layerRun alternates untraced and traced checks of one job until the time
// is up. Both run under the same resource probes, and an untimed warm-up
// check goes first, because the process's first check runs on a cold heap
// and takes longer. trace.overhead_ratio is the median over traced checks
// of the check's time over the mean of its untraced neighbours, so a host
// that slows down or speeds up during the run does not show as tracing
// cost. Per-layer values are medians over the traced checks; the runtime
// allocation counts come from the untraced ones.
func layerRun(cfg config, w spec, j job, base string, t *tally) ([]metricValue, error) {
	runs := map[string][]float64{}
	var seq []timed // timed checks in run order
	limit := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	for i := 0; ; i++ {
		dir := filepath.Join(base, fmt.Sprintf("check-%d", i))
		if i%2 == 0 {
			wall, u, _, err := check(cfg, w, j, dir, t)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				continue
			}
			seq = append(seq, timed{wall: wall})
			runs["runtime.alloc_mib"] = append(runs["runtime.alloc_mib"], float64(u.Alloc)/(1<<20))
			runs["runtime.allocs"] = append(runs["runtime.allocs"], float64(u.Allocs))
			runs["runtime.gc_cycles"] = append(runs["runtime.gc_cycles"], float64(u.GCs))
		} else {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, err
			}
			var doc bytes.Buffer
			rec := trace.NewWriters(&doc, nil)
			p := startProbe()
			o, wall := w.traced(j, dir, rec)
			p.finish()
			if err := rec.Close(); err != nil {
				return nil, fmt.Errorf("trace: %w", err)
			}
			t.add(j, o)
			seq = append(seq, timed{traced: true, wall: wall})
			fmt.Fprintf(os.Stderr, "perfbench: %s traced: %.3fs\n", j.key, wall)
			if err := layerValues(o, doc.Bytes(), runs); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		if i >= 2 && done(i, i, time.Since(start), limit) {
			break
		}
	}
	runs["trace.overhead_ratio"] = overheadRatios(seq)
	var out []metricValue
	for _, m := range perLayer {
		out = append(out, metricValue{name: m.name, unit: m.unit, value: median(runs[m.name])})
	}
	return out, nil
}

// timed is one timed check of a traced run.
type timed struct {
	traced bool
	wall   float64
}

// overheadRatios divides each traced check's time by the mean time of the
// untraced checks next to it.
func overheadRatios(seq []timed) []float64 {
	var out []float64
	for i, c := range seq {
		if !c.traced {
			continue
		}
		var sum, n float64
		for _, k := range []int{i - 1, i + 1} {
			if k >= 0 && k < len(seq) && !seq[k].traced {
				sum += seq[k].wall
				n++
			}
		}
		if n > 0 {
			out = append(out, c.wall/(sum/n))
		}
	}
	return out
}

// setUp generates the inputs (or loads the snapshot) and creates a work
// directory, in setupBlocks timed blocks of setupBlockReps repetitions, and
// returns each block's time per repetition. Every repetition must produce
// the same input.
func setUp(cfg config, w spec, base string) (input, []float64, error) {
	var in input
	var want string
	var times []float64
	// One collection first, so earlier garbage is not charged to set-up.
	runtime.GC()
	block := make([]input, setupBlockReps)
	for b := 0; b < setupBlocks; b++ {
		t0 := time.Now()
		for i := range block {
			x, err := w.setup(cfg.seed, cfg.root)
			if err == nil {
				err = os.MkdirAll(filepath.Join(base, fmt.Sprintf("setup-%d-%d", b, i)), 0o755)
			}
			if err != nil {
				return nil, nil, fmt.Errorf("set-up: %w", err)
			}
			block[i] = x
		}
		times = append(times, time.Since(t0).Seconds()/setupBlockReps)
		for _, x := range block {
			if in == nil {
				in, want = x, x.digest()
			} else if x.digest() != want {
				return nil, nil, fmt.Errorf("set-up: seed %d produced two different inputs", cfg.seed)
			}
		}
	}
	// Temporary directories the program creates for itself (batch
	// instances) land in the work directory too.
	if err := os.Setenv("TMPDIR", base); err != nil {
		return nil, nil, err
	}
	return in, times, nil
}

// done decides whether to stop after a round: once the time is up, or
// earlier when one more round would overrun it by more than a quarter,
// provided at least minChecks checks have run.
func done(checks, rounds int, elapsed, limit time.Duration) bool {
	if checks < minChecks {
		return false
	}
	perRound := elapsed / time.Duration(rounds)
	return elapsed >= limit || elapsed+perRound > limit+limit/4
}

// layerValues turns one traced check into per-layer values.
func layerValues(o *outcome, doc []byte, runs map[string][]float64) error {
	times, steps, err := spanTimes(doc)
	if err != nil {
		return err
	}
	v := map[string]float64{}
	for k, x := range o.layers.v {
		v[k] = x
	}
	for k, x := range times {
		v[k] = x
	}
	v["engine.supersteps"] = float64(len(steps))
	if len(steps) > 0 {
		ms := make([]float64, len(steps))
		for i, d := range steps {
			ms[i] = float64(d) / float64(time.Millisecond)
		}
		v["engine.superstep_p50_ms"] = median(ms)
	}
	v["engine.useful_ratio"] = ratio(v["engine.edges_induced"], v["engine.edges_induced"]+v["engine.rejected_unsat"]+v["engine.rejected_conflict"])
	v["engine.ns_per_edge"] = ratio((v["engine.alias_s"]+v["engine.dataflow_s"])*1e9, v["engine.edges_induced"])
	v["storage.prefetch_hit_ratio"] = ratio(v["storage.prefetch_hits"], v["storage.prefetch_issued"])
	v["smt.cache_hit_ratio"] = ratio(v["smt.cache_hits"], v["smt.cache_lookups"])
	v["smt.solve_share"] = ratio(v["smt.breakdown_solve"], v["smt.breakdown_total"])
	for k, x := range v {
		runs[k] = append(runs[k], x)
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median of xs; 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// describe renders a sample's count, quartiles and range.
func describe(xs []float64) string {
	if len(xs) == 0 {
		return "(no samples)"
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 { return s[int(p*float64(len(s)-1)+0.5)] }
	return fmt.Sprintf("(median of %d; q1 %.4g q3 %.4g min %.4g max %.4g)", len(s), q(0.25), q(0.75), s[0], s[len(s)-1])
}

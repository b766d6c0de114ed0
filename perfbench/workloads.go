package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	grapple "github.com/grapple-system/grapple"
	"github.com/grapple-system/grapple/internal/checker"
	"github.com/grapple-system/grapple/internal/engine"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/fsm/packs"
	"github.com/grapple-system/grapple/internal/gofront"
	"github.com/grapple-system/grapple/internal/ir"
	"github.com/grapple-system/grapple/internal/lang"
	"github.com/grapple-system/grapple/internal/scheduler"
	"github.com/grapple-system/grapple/internal/smt"
	"github.com/grapple-system/grapple/internal/trace"
	"github.com/grapple-system/grapple/internal/workload"
)

const (
	// inMemBudget keeps hdfs-sim's graphs in one partition. oocBudget splits
	// its dataflow graph into two partitions with a repartition, loads,
	// evictions and prefetches. An 8 MiB budget splits it four ways, but on
	// a 2-vCPU virtual machine a check then takes 7-9 s, and partition-file
	// fsyncs add enough wall-time noise that three checks a run spread too
	// much.
	inMemBudget = 256 << 20
	oocBudget   = 16 << 20

	// snapshotDir holds a frozen copy of internal/storage's non-test files,
	// so edits to the live package never change the go-check workload.
	snapshotDir = "testdata/gostorage"
	// snapshotSHA256 pins the snapshot's content (see snapshotDigest).
	snapshotSHA256 = "f91eea67734a97cc69b0596d8bd9cee9e8ed259e9ed43111d7f1124f12d096e7"
)

// goPacks are the property packs `make check-self` runs over
// internal/storage; on the snapshot they report nothing.
var goPacks = []string{"file-handle", "use-after-release"}

// job is one check's input: the generated subjects (one, or a batch's
// two) or the snapshot directory. The program receives only these. key
// names its report stream for the cross-run digest check.
type job struct {
	subjects []*workload.Subject
	goDir    string
	key      string
}

// input is what set-up produces: the jobs of one round.
type input []job

// digest identifies the input, so repeated set-ups can be compared.
func (in input) digest() string {
	var srcs []string
	for _, j := range in {
		srcs = append(srcs, j.key, j.goDir)
		for _, s := range j.subjects {
			srcs = append(srcs, s.Source)
		}
	}
	return digest(srcs)
}

// outcome is one check (or one batch) as the benchmark saw it.
type outcome struct {
	digest    string // SHA-256 of the JSON report stream
	attempted int    // checks, or batch instances
	failed    int    // errors, timeouts and wrong verdicts
	problems  []string
	induced   int64 // closure edges induced, both phases
	layers    layerCounts
}

// spec is one workload. A run checks every job of its input once per
// round. check runs the public entry point a user calls; traced runs the
// same pipeline layer by layer through the recorder.
type spec struct {
	name   string
	why    string
	setup  func(seed int64, root string) (input, error)
	check  func(j job, dir string) *outcome
	traced func(j job, dir string, rec *trace.Recorder) (*outcome, float64)
}

// The sim workloads check several subjects a round, generated from the
// run's seed s and from s+1, s+2, ... A single hdfs-sim's check time moves
// by about ±20% with its seed, so a run timed on one subject would spread
// more than any bound can absorb; a median over the round's subjects is
// steadier, and every subject still comes from the run's seed.
var workloads = []spec{
	{
		name:   "sim-inmem",
		why:    "hdfs-sim at a 256 MiB budget: one partition, so the closure join dominates and storage is idle",
		setup:  simSetup(6, "hdfs-sim"),
		check:  simCheck(inMemBudget),
		traced: simTraced(inMemBudget),
	},
	{
		name:   "sim-ooc",
		why:    "the same subjects at a 16 MiB budget: only the budget differs, so the gap isolates out-of-core pair scheduling, re-joins and partition I/O",
		setup:  simSetup(6, "hdfs-sim"),
		check:  simCheck(oocBudget),
		traced: simTraced(oocBudget),
	},
	{
		name:   "batch-mixed",
		why:    "CheckAll over zookeeper-sim and hadoop-sim, 8 short instances sharing frontends and one SMT cache",
		setup:  simSetup(6, "zookeeper-sim", "hadoop-sim"),
		check:  batchCheck,
		traced: batchTraced,
	},
	{
		name:   "go-check",
		why:    "real Go through gofront on a frozen internal/storage snapshot; the only solver-heavy workload",
		setup:  goSetup,
		check:  goCheck,
		traced: goTraced,
	},
}

func workloadByName(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

func workers() int { return runtime.NumCPU() }

// simSetup generates n jobs of the named profiles, job i with generator
// seed seed+i. Job keys name the subjects and seed, so the cross-run check
// compares the in-memory and out-of-core reports of each hdfs-sim subject.
func simSetup(n int, names ...string) func(int64, string) (input, error) {
	return func(seed int64, _ string) (input, error) {
		var in input
		for i := 0; i < n; i++ {
			sub := seed + int64(i)
			j := job{key: fmt.Sprintf("%s-%d", strings.Join(names, "+"), sub)}
			for _, name := range names {
				p, ok := workload.ProfileByName(name)
				if !ok {
					return nil, fmt.Errorf("unknown profile %q", name)
				}
				p.Seed = sub
				j.subjects = append(j.subjects, workload.Generate(p))
			}
			in = append(in, j)
		}
		return in, nil
	}
}

// goSetup loads the snapshot and checks it against the pinned digest.
func goSetup(_ int64, root string) (input, error) {
	dir := filepath.Join(root, snapshotDir)
	sum, err := snapshotDigest(dir)
	if err != nil {
		return nil, err
	}
	if sum != snapshotSHA256 {
		return nil, fmt.Errorf("snapshot %s changed: sha256 %s, pinned %s", dir, sum, snapshotSHA256)
	}
	return input{{goDir: dir, key: "go-storage"}}, nil
}

// snapshotDigest hashes the snapshot's .go files by name and content.
func snapshotDigest(dir string) (string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		return "", fmt.Errorf("snapshot %s: no .go files (%v)", dir, err)
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.Base(f), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// digest is the SHA-256 of a report stream's JSON encoding.
func digest(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// verdict scores one sim subject's reports against its planted seeds. A
// verdict is correct when no genuine seed is missed, no report is
// unmatched, and the false positives are exactly the planted ExpectFP ones.
func verdict(s *workload.Subject, reports []checker.Report) error {
	t := workload.Evaluate(s, reports)
	tot := t.Totals()
	wantFP := 0
	for _, sd := range s.Seeded {
		if sd.ExpectFP {
			wantFP++
		}
	}
	if tot.FN != 0 || len(t.UnmatchedReports) != 0 || tot.FP != wantFP {
		return fmt.Errorf("%s: FN=%d unmatched=%d FP=%d (want FN=0 unmatched=0 FP=%d)",
			s.Name, tot.FN, len(t.UnmatchedReports), tot.FP, wantFP)
	}
	return nil
}

func induced(ps ...engine.Stats) int64 {
	var n int64
	for _, s := range ps {
		n += s.EdgesAfter - s.EdgesBefore
	}
	return n
}

// publicInduced is induced over the public API's phase statistics.
func publicInduced(ps ...grapple.PhaseStats) int64 {
	var n int64
	for _, s := range ps {
		n += s.EdgesAfter - s.EdgesBefore
	}
	return n
}

func simCheck(budget int64) func(job, string) *outcome {
	return func(j job, dir string) *outcome {
		s := j.subjects[0]
		out := &outcome{attempted: 1}
		res, err := grapple.Check(s.Source, grapple.BuiltinCheckers(), grapple.Options{
			WorkDir: dir, MemoryBudget: budget, Workers: workers(),
		})
		if err != nil {
			return out.fail(err)
		}
		out.digest = digest(res.Reports)
		out.induced = publicInduced(res.Alias, res.Dataflow)
		if err := verdict(s, res.Reports); err != nil {
			return out.fail(err)
		}
		return out
	}
}

func (o *outcome) fail(err error) *outcome {
	o.failed++
	o.problems = append(o.problems, err.Error())
	return o
}

// checkerOptions mirrors the options grapple.Check hands the checker.
func checkerOptions(dir string, budget int64, nworkers int, rec *trace.Recorder) checker.Options {
	return checker.Options{
		WorkDir: dir,
		Engine: engine.Options{
			MemoryBudget: budget,
			Workers:      nworkers,
			SolverOpts:   smt.DefaultOptions(),
		},
		Trace: rec,
	}
}

// span times one public layer call on the benchmark's own trace lane.
func span(rec *trace.Recorder, name string, f func() error) error {
	sp := rec.Start(0, "bench", name)
	err := f()
	sp.End(nil)
	return err
}

// runPrepared drives checker.PrepareIR and checker.CheckPrepared under the
// benchmark's spans.
func runPrepared(c *checker.Checker, p *ir.Program, rec *trace.Recorder) (*checker.Result, error) {
	ctx := context.Background()
	var prep *checker.Prepared
	var res *checker.Result
	err := span(rec, "checker.prepare", func() (err error) {
		prep, err = c.PrepareIR(ctx, p)
		return err
	})
	if err == nil {
		err = span(rec, "checker.check", func() (err error) {
			res, err = c.CheckPrepared(ctx, prep)
			return err
		})
	}
	return res, err
}

// frontend runs lang.Parse, then lowerIR, under spans.
func frontend(src string, rec *trace.Recorder) (*ir.Program, error) {
	var prog *lang.Program
	err := span(rec, "lang.parse", func() (err error) {
		prog, err = lang.Parse(src)
		return err
	})
	if err != nil {
		return nil, err
	}
	return lowerIR(prog, rec)
}

// lowerIR runs lang.Resolve and ir.Lower under spans.
func lowerIR(prog *lang.Program, rec *trace.Recorder) (*ir.Program, error) {
	var info *lang.Info
	var p *ir.Program
	err := span(rec, "lang.resolve", func() (err error) {
		info, err = lang.Resolve(prog)
		return err
	})
	if err == nil {
		err = span(rec, "ir.lower", func() (err error) {
			p, err = ir.Lower(info, ir.Options{})
			return err
		})
	}
	return p, err
}

func simTraced(budget int64) func(job, string, *trace.Recorder) (*outcome, float64) {
	return func(j job, dir string, rec *trace.Recorder) (*outcome, float64) {
		s := j.subjects[0]
		out := &outcome{attempted: 1}
		start := time.Now()
		p, err := frontend(s.Source, rec)
		var res *checker.Result
		if err == nil {
			res, err = runPrepared(checker.New(fsm.Builtins(), checkerOptions(dir, budget, workers(), rec)), p, rec)
		}
		wall := time.Since(start).Seconds()
		if err != nil {
			return out.fail(err), wall
		}
		out.digest = digest(res.Reports)
		out.induced = induced(res.Alias.Stats, res.Dataflow.Stats)
		out.layers.addResult(res, true)
		if err := verdict(s, res.Reports); err != nil {
			out.fail(err)
		}
		return out, wall
	}
}

// batchSubjects maps the generated subjects onto batch subjects.
func batchSubjects(j job) []grapple.Subject {
	subs := make([]grapple.Subject, len(j.subjects))
	for i, s := range j.subjects {
		subs[i] = grapple.Subject{Name: s.Name, Source: s.Source}
	}
	return subs
}

// batchVerdicts scores each subject's share of a merged stream; a wrong
// verdict fails every instance of that subject.
func batchVerdicts(out *outcome, j job, bySubject map[string][]checker.Report, instancesPer int) {
	for _, s := range j.subjects {
		if err := verdict(s, bySubject[s.Name]); err != nil {
			out.failed += instancesPer
			out.problems = append(out.problems, err.Error())
		}
	}
}

// batchCheck leaves WorkDir empty: every instance then gets its own
// temporary directory (under TMPDIR, which main points into the benchmark's
// state directory).
func batchCheck(j job, _ string) *outcome {
	fsms := grapple.BuiltinCheckers()
	out := &outcome{attempted: len(j.subjects) * len(fsms)}
	res, err := grapple.CheckAll(batchSubjects(j), fsms, grapple.BatchOptions{
		Options:      grapple.Options{Workers: 1},
		BatchWorkers: workers(),
	})
	if err != nil {
		out.failed = out.attempted
		out.problems = append(out.problems, err.Error())
		return out
	}
	for _, st := range res.Failed() {
		out.failed++
		out.problems = append(out.problems, fmt.Sprintf("%s/%s: %v", st.Subject, st.Group, st.Err))
	}
	bySubject := map[string][]checker.Report{}
	for _, r := range res.Reports {
		bySubject[r.Subject] = append(bySubject[r.Subject], r.Report)
	}
	out.digest = digest(res.Reports)
	batchVerdicts(out, j, bySubject, len(fsms))
	// The alias closure runs once per subject and is shared by its
	// instances, so count its edges once.
	seen := map[string]bool{}
	for _, st := range res.Instances {
		if !seen[st.Subject] {
			seen[st.Subject] = true
			out.induced += publicInduced(st.Alias)
		}
		out.induced += publicInduced(st.Dataflow)
	}
	return out
}

// batchTraced runs the batch through scheduler.Run with the recorder
// attached. The scheduler parses each subject inside its first instance,
// untraced, so the lang and ir layers are timed by running the same calls
// once per subject beforehand; the returned wall time covers the batch
// alone.
func batchTraced(j job, _ string, rec *trace.Recorder) (*outcome, float64) {
	fsms := fsm.Builtins()
	out := &outcome{attempted: len(j.subjects) * len(fsms)}
	subs := make([]scheduler.Subject, len(j.subjects))
	for i, s := range j.subjects {
		if _, err := frontend(s.Source, rec); err != nil {
			return out.fail(err), 0
		}
		subs[i] = scheduler.Subject{Name: s.Name, Source: s.Source}
	}
	instances := scheduler.Expand(subs, scheduler.GroupPerFSM(fsms), checkerOptions("", 0, 1, nil))
	start := time.Now()
	res, err := scheduler.Run(context.Background(), instances, scheduler.Options{Workers: workers(), Trace: rec})
	wall := time.Since(start).Seconds()
	if err != nil {
		out.failed = out.attempted
		out.problems = append(out.problems, err.Error())
		return out, wall
	}
	for _, ir := range res.Failed() {
		out.failed++
		out.problems = append(out.problems, fmt.Sprintf("%s/%s: %v", ir.Subject, ir.Group, ir.Err))
	}
	bySubject := map[string][]checker.Report{}
	for _, r := range res.Reports {
		bySubject[r.Subject] = append(bySubject[r.Subject], r.Report)
	}
	out.digest = digest(res.Reports)
	batchVerdicts(out, j, bySubject, len(fsms))
	seen := map[string]bool{}
	for _, ir := range res.Instances {
		if ir.Result == nil {
			continue
		}
		first := !seen[ir.Subject]
		seen[ir.Subject] = true
		if first {
			out.induced += induced(ir.Result.Alias.Stats)
		}
		out.induced += induced(ir.Result.Dataflow.Stats)
		out.layers.addResult(ir.Result, first)
	}
	out.layers.sched(res, workers(), wall)
	return out, wall
}

func goCheck(j job, dir string) *outcome {
	out := &outcome{attempted: 1}
	res, _, err := grapple.CheckGoPackage(j.goDir, goPacks, grapple.Options{WorkDir: dir, Workers: workers()})
	if err != nil {
		return out.fail(err)
	}
	out.digest = digest(res.Reports)
	out.induced = publicInduced(res.Alias, res.Dataflow)
	if len(res.Reports) != 0 {
		out.fail(fmt.Errorf("go-check: %d reports, want none", len(res.Reports)))
	}
	return out
}

// goTraced follows grapple.CheckGoPackage layer by layer: gofront lowering,
// resolve, IR lowering, then the checker with the variant cap the Go path
// uses.
func goTraced(j job, dir string, rec *trace.Recorder) (*outcome, float64) {
	out := &outcome{attempted: 1}
	var selected []*packs.Pack
	var fsms []*fsm.FSM
	for _, name := range goPacks {
		pk, err := packs.Get(name)
		if err != nil {
			return out.fail(err), 0
		}
		selected = append(selected, pk)
		fsms = append(fsms, pk.FSM)
	}
	start := time.Now()
	var g *gofront.Result
	var p *ir.Program
	var res *checker.Result
	err := span(rec, "gofront.lower", func() (err error) {
		g, err = gofront.LowerPackageWith(j.goDir, packs.MergedRules(selected), gofront.Options{})
		return err
	})
	if err == nil {
		p, err = lowerIR(g.Prog, rec)
	}
	if err == nil {
		co := checkerOptions(dir, 0, workers(), rec)
		co.Engine.MaxVariants = 32
		res, err = runPrepared(checker.New(fsms, co), p, rec)
	}
	wall := time.Since(start).Seconds()
	if err != nil {
		return out.fail(err), wall
	}
	out.digest = digest(res.Reports)
	out.induced = induced(res.Alias.Stats, res.Dataflow.Stats)
	out.layers.addResult(res, true)
	out.layers.gofront(g)
	if len(res.Reports) != 0 {
		out.fail(fmt.Errorf("go-check: %d reports, want none", len(res.Reports)))
	}
	return out, wall
}

// Command perfbench is the benchmark of the bristleblocks compiler and its
// bbd daemon. It drives the compiler from outside, through desc.Parse,
// core.CompileCtx, cif.Write, invariant.Check and the bbd HTTP handler,
// with their shipped defaults, and prints one JSON result line:
//
//	perfbench --workload t2_curve --seed 1 --seconds 30 --trace 0
//
// Workloads are t2_curve, wide_pads and serve_mix (or all). --trace 1 makes
// the traced run, which reports per-layer metrics in place of the
// end-to-end ones. --selfcheck runs the determinism self-check. README.md
// explains the workloads, the metrics and the checks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"bristleblocks/internal/core"
	"bristleblocks/internal/geom"
)

// buildDir holds what runs leave behind: traces and the check memo.
const buildDir = ".bench_build/perfbench"

// setups is how many times a run sets its workload up; setup_s is the
// median, so one scheduler hiccup cannot move it.
const setups = 5

// rssOps is how many leading ops peak_rss_mb is taken over: a fixed
// amount of work, so the figure does not depend on how many rounds a run
// fits in. serve_mix's cache keeps every cold result, and its resident
// set grows from round to round; 3600 ops are six of its rounds, and more
// than a 30-second run of a compile workload holds, so those use every
// round (their resident set does not grow).
const rssOps = 3600

// maxSteal is the host's CPU steal share, in percent, above which a
// round's timing is left out of the timing metrics (see steady).
const maxSteal = 5.0

// minTimedOps is the fewest ops the timing metrics rest on: 100 leaves
// ten samples beyond latency_ms_p90.
const minTimedOps = 100

// knownDefects names the inputs the compiler is known to fail, with the
// error they fail with. An op on one of them that fails with that error,
// when the in-process compile fails the same way, counts against ok_ratio
// and leaves the run correct; any other failure makes the run incorrect.
// The quality sums leave these inputs out whether or not they compile,
// so a fix of the defect does not move them.
var knownDefects = map[string]string{
	"ForPads seed 18": "pads: no free approach to io2",
	"ForPads seed 54": "pads: no free approach to io2",
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

// config is what a workload's setup needs to know about the run.
type config struct {
	seed int64
	// parallelism is core.Options.Parallelism for in-process compiles and
	// server.Config.Parallelism for bbd; the shipped defaults are 0 (as
	// bristlec) and 1 (as bbd -j 1). The self-check overrides both.
	parallelism *int
	traced      bool
}

// opRec is one timed op. digest is the op's output — a CIF, or a verdict
// list — and err is set when the program refused or failed the op.
type opRec struct {
	class  int
	input  int
	ms     float64
	err    string
	digest [32]byte
}

// roundRec is one round of the client: a fixed multiset of ops in seeded
// order, ops[first:first+ops] of the run. Traced runs alternate traced and
// untraced rounds.
type roundRec struct {
	traced     bool
	first, ops int
	start      time.Time
	dur        time.Duration
	steal      float64 // the host's CPU steal share during the round, percent
}

// ref is the check pass's independent answer for one distinct input.
type ref struct {
	digest [32]byte
	err    string
	stats  *core.Stats // nil when the compile failed
	size   int         // CIF bytes
	defect bool        // a known defect: left out of the quality sums
}

// workload is a set-up workload, ready for its timed phase.
type workload interface {
	// timed runs whole rounds of the closed loop until the deadline has
	// passed.
	timed(deadline time.Time, tr *tracer) ([]opRec, []roundRec)
	// check derives every distinct input's reference outside the timed
	// phase and returns violations found on the way (invariants, goldens).
	check(memo *checkMemo) ([]ref, []string)
	// classes names the op classes; label names a distinct input.
	classes() []string
	label(input int) string
	// layers adds the per-layer metrics the workload can observe.
	layers(m map[string]metric, ops []opRec, tr *tracer)
	close()
}

type setupFunc func(config) (workload, error)

var workloads = map[string]setupFunc{
	"t2_curve":  setupT2Curve,
	"wide_pads": setupWidePads,
	"serve_mix": setupServeMix,
}

var workloadOrder = []string{"t2_curve", "wide_pads", "serve_mix"}

func main() {
	name := flag.String("workload", "", "t2_curve, wide_pads, serve_mix, or all")
	seed := flag.Int64("seed", 1, "seed of the op order; the same seed gives the same op sequence")
	seconds := flag.Int("seconds", 30, "length of the timed phase in seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run, reporting per-layer metrics")
	selfcheck := flag.Bool("selfcheck", false, "determinism self-check at Parallelism 1 and the default")
	flag.Parse()
	if *selfcheck {
		os.Exit(runSelfcheck())
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadOrder
	} else if workloads[*name] == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s or all)\n", *name, strings.Join(workloadOrder, ", "))
		os.Exit(2)
	}
	if *seconds < 1 || *traceFlag < 0 || *traceFlag > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥1 and --trace 0 or 1")
		os.Exit(2)
	}
	code := 0
	for _, n := range names {
		cfg := config{seed: *seed, traced: *traceFlag == 1}
		res, _, err := runWorkload(n, cfg, time.Duration(*seconds)*time.Second, &checkMemo{dir: memoDir()})
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			os.Exit(1)
		}
		if len(names) > 1 {
			printTable(n, res)
		}
		line, _ := json.Marshal(res)
		fmt.Println(string(line))
		if !res.Correct {
			code = 1
		}
	}
	os.Exit(code)
}

// runWorkload sets a workload up, runs its timed phase, checks every
// output and returns the result line.
func runWorkload(name string, cfg config, length time.Duration, memo *checkMemo) (*result, []ref, error) {
	var w workload
	var setupS []float64
	for i := 0; i < setups; i++ {
		if w != nil {
			w.close()
		}
		t0 := time.Now()
		var err error
		if w, err = workloads[name](cfg); err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer func() {
		if w != nil {
			w.close()
		}
	}()

	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	cpu0, rt0 := readCPUTimes(), readRuntime()
	rss := sampleRSS(5 * time.Millisecond)
	t0 := time.Now()
	ops, rounds := w.timed(t0.Add(length), tr)
	elapsed := time.Since(t0)
	rss.finish()
	cpu1, rt1 := readCPUTimes(), readRuntime()
	// peak_rss_mb is a round's peak resident set, the median over the
	// rounds of the first rssOps ops: the process-lifetime high-water mark
	// rests on one GC's timing and moved by 20% between runs of the same
	// work.
	var roundPeaks []float64
	for _, r := range rounds {
		if r.first < rssOps {
			roundPeaks = append(roundPeaks, rss.peak(r.start, r.start.Add(r.dur)))
		}
	}

	refs, violations := w.check(memo)
	for i := range refs {
		switch {
		case knownDefects[w.label(i)] != "":
			refs[i].defect = true
		case refs[i].err != "":
			violations = append(violations, fmt.Sprintf("%s does not compile in process: %s", w.label(i), refs[i].err))
		}
	}
	res := &result{Correct: true, Attempted: len(ops), Metrics: map[string]metric{}}
	ok := make([]bool, len(ops))
	failures := map[string]int{}
	for i, op := range ops {
		r := refs[op.input]
		known := knownDefects[w.label(op.input)]
		switch {
		case op.err == "" && r.err == "" && op.digest == r.digest:
			ok[i] = true
			continue
		case known != "" && strings.Contains(op.err, known) && strings.Contains(r.err, known):
			// The known defect: the in-process compile of the same input
			// fails the same way. Counted, not a wrong answer.
			failures[fmt.Sprintf("%s: %s", w.label(op.input), known)]++
		default:
			violations = append(violations, fmt.Sprintf("%s op on %s disagrees with its reference (op err %q, reference err %q)",
				w.classes()[op.class], w.label(op.input), op.err, r.err))
		}
		res.Failed++
	}
	// The timing metrics come from the rounds the host left alone; a
	// failed op in them counts as infinitely slow.
	calm := steady(rounds)
	var lat []float64
	for _, r := range calm {
		for i := r.first; i < r.first+r.ops; i++ {
			if ok[i] {
				lat = append(lat, ops[i].ms)
			} else {
				lat = append(lat, failedMS)
			}
		}
	}
	if len(violations) > 0 {
		res.Correct = false
		for i, v := range dedupe(violations) {
			if i == 20 {
				fmt.Fprintf(os.Stderr, "perfbench: %s: ... and more\n", name)
				break
			}
			fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", name, v)
		}
	}
	for _, f := range sortedKeys(failures) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: known failure ×%d: %s\n", name, failures[f], f)
	}

	n := len(ops)
	if !cfg.traced {
		m := res.Metrics
		m["setup_s"] = metric{median(setupS), "s"}
		m["throughput_ops_s"] = metric{throughput(calm) * float64(n-res.Failed) / float64(max(n, 1)), "1/s"}
		m["latency_ms_p50"] = metric{quantile(lat, 0.5), "ms"}
		m["latency_ms_p90"] = metric{quantile(lat, 0.9), "ms"}
		m["ok_ratio"] = metric{float64(n-res.Failed) / float64(max(n, 1)), "ratio"}
		m["peak_rss_mb"] = metric{median(roundPeaks), "MB"}
		q := quality(refs)
		m["area_lambda2"] = metric{q.area, "lambda2"}
		m["wirelen_lambda"] = metric{q.wire, "lambda"}
		m["pla_terms"] = metric{q.pla, "terms"}
	} else {
		m := res.Metrics
		for _, l := range perLayer {
			m[l.name] = metric{0, l.unit} // a layer the workload does not exercise reads 0
		}
		perOp := 1 / float64(max(n, 1))
		m["runtime.alloc_mb_per_op"] = metric{(rt1.allocBytes - rt0.allocBytes) / (1 << 20) * perOp, "MB"}
		m["runtime.gc_cycles_per_op"] = metric{(rt1.gcCycles - rt0.gcCycles) * perOp, "count"}
		m["runtime.gc_pause_ms_per_op"] = metric{(rt1.gcPauseSec - rt0.gcPauseSec) * 1e3 * perOp, "ms"}
		m["trace.overhead_pct"] = metric{traceOverhead(rounds), "%"}
		addCounts(m, refs)
		w.layers(m, ops, tr)
		for k := range m {
			if layerUnit[k] == "" {
				panic("perfbench: per-layer metric " + k + " is not declared in perLayer")
			}
		}
		if err := tr.write(filepath.Join(buildDir, "traces"), fmt.Sprintf("%s-seed%d.json", name, cfg.seed)); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
		}
	}
	// Each distinct input's median latency: for t2_curve, the T2 curve of
	// compile time against chip size.
	byInput := map[string][]float64{}
	for _, op := range ops {
		byInput[w.label(op.input)] = append(byInput[w.label(op.input)], op.ms)
	}
	curve := map[string]float64{}
	for k, v := range byInput {
		curve[k] = median(v)
	}
	var roundMS, roundSteal []float64
	for _, r := range rounds {
		roundMS, roundSteal = append(roundMS, ms(r.dur)), append(roundSteal, r.steal)
	}
	meta := map[string]any{
		"workload": name, "seed": cfg.seed, "traced": cfg.traced, "input_ms_p50": curve,
		"seconds": elapsed.Seconds(), "ops": n, "failed": res.Failed,
		"rounds": len(rounds), "rounds_timed": len(calm), "samples_timed": len(lat),
		"samples_beyond_p90": beyond(len(lat), 0.9), "setup_s_each": setupS,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"go": runtime.Version(), "commit": commit(), "cpu_steal_pct": stealPct(cpu0, cpu1),
		"round_ms": roundMS, "round_steal_pct": roundSteal,
	}
	line, _ := json.Marshal(map[string]any{"meta": meta})
	fmt.Println(string(line))
	return res, refs, nil
}

// failedMS is a failed op's latency: it misses every latency limit.
var failedMS = math.MaxFloat64

type qualitySums struct{ area, wire, pla float64 }

// quality sums the exact chip-quality figures over the workload's
// distinct chips, known defects left out.
func quality(refs []ref) qualitySums {
	var q qualitySums
	for _, r := range dedupeRefs(refs) {
		q.area += float64(r.stats.ChipBounds.Area()) / float64(geom.Lambda*geom.Lambda)
		q.wire += geom.InLambda(r.stats.WireLen)
		q.pla += float64(r.stats.PLATerms)
	}
	return q
}

// addCounts adds the per-compile count metrics, summed over the distinct
// inputs: they repeat exactly from run to run and at every Parallelism.
func addCounts(m map[string]metric, refs []ref) {
	var cells, stretches, before, after, expanded, nets, conflicts, retries, peak, size float64
	for _, r := range dedupeRefs(refs) {
		s := r.stats
		cells += float64(s.CellsGenerated)
		stretches += float64(s.StretchesApplied)
		before += float64(s.PlaTermsBefore)
		after += float64(s.PlaTermsAfter)
		expanded += float64(s.RouteCellsExpanded)
		nets += float64(s.RouteNets)
		conflicts += float64(s.RouteConflicts)
		retries += float64(s.RouteRetries)
		peak = max(peak, float64(s.RouteFrontierPeak))
		size += float64(r.size)
	}
	m["core.cells_generated"] = metric{cells, "count"}
	m["core.stretches_applied"] = metric{stretches, "count"}
	m["decoder.pla_terms_before"] = metric{before, "count"}
	m["decoder.pla_terms_after"] = metric{after, "count"}
	m["route.cells_expanded"] = metric{expanded, "count"}
	m["route.nets"] = metric{nets, "count"}
	m["route.conflicts"] = metric{conflicts, "count"}
	m["route.retries"] = metric{retries, "count"}
	m["route.frontier_peak"] = metric{peak, "count"}
	m["route.conflict_ratio"] = metric{conflicts / max(nets, 1), "ratio"}
	m["cif.bytes"] = metric{size, "bytes"}
}

// dedupeRefs keeps one reference per distinct compiled chip: two inputs
// can compile to one chip (two edits that land on the same spec), and a
// chip's quality counts once. Known defects are left out.
func dedupeRefs(refs []ref) []ref {
	seen := map[[32]byte]bool{}
	var out []ref
	for _, r := range refs {
		if r.stats == nil || r.defect || seen[r.digest] {
			continue
		}
		seen[r.digest] = true
		out = append(out, r)
	}
	return out
}

// closedLoop runs whole rounds of one closed-loop client until the
// deadline has passed: each round does every op of round, in a fresh
// seeded order. Traced runs alternate traced and untraced rounds.
func closedLoop(seed int64, deadline time.Time, tr *tracer, round []int, do func(input int, tr *tracer) opRec) ([]opRec, []roundRec) {
	rng := rand.New(rand.NewSource(seed))
	var ops []opRec
	var rounds []roundRec
	for r := 0; ; r++ {
		var rt *tracer
		if r%2 == 1 {
			rt = tr
		}
		first, cpu0, t0 := len(ops), readCPUTimes(), time.Now()
		for _, j := range rng.Perm(len(round)) {
			ops = append(ops, do(round[j], rt))
		}
		rounds = append(rounds, roundRec{traced: rt != nil, first: first, ops: len(round),
			start: t0, dur: time.Since(t0), steal: stealPct(cpu0, readCPUTimes())})
		if !time.Now().Before(deadline) {
			return ops, rounds
		}
	}
}

// steady picks the rounds the timing metrics are taken from: those during
// which the hypervisor stole at most maxSteal percent of the host's CPU.
// When fewer are that calm, it takes the calmest half of the rounds, or
// as many of the calmest as hold minTimedOps ops, so a run always reports
// on enough samples.
func steady(rounds []roundRec) []roundRec {
	s := append([]roundRec(nil), rounds...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].steal < s[j].steal })
	keep := max((len(s)+1)/2, (minTimedOps+s[0].ops-1)/s[0].ops)
	for keep < len(s) && s[keep].steal <= maxSteal {
		keep++
	}
	return s[:min(keep, len(s))]
}

// throughput is the closed loop's rate of ops: the round size over the
// median round time. Every round is the same multiset of ops, so the
// median round is the steady rate, and a host hiccup during a few rounds
// does not move it.
func throughput(rounds []roundRec) float64 {
	var durs []float64
	for _, r := range rounds {
		durs = append(durs, r.dur.Seconds())
	}
	if len(durs) == 0 {
		return 0
	}
	return float64(rounds[0].ops) / median(durs)
}

// traceOverhead compares the throughput of traced and untraced rounds
// of the same run, in percent of the untraced throughput.
func traceOverhead(rounds []roundRec) float64 {
	var opsOn, opsOff float64
	var on, off time.Duration
	for _, r := range rounds {
		if r.traced {
			opsOn, on = opsOn+float64(r.ops), on+r.dur
		} else {
			opsOff, off = opsOff+float64(r.ops), off+r.dur
		}
	}
	if on == 0 || off == 0 || opsOff == 0 {
		return 0
	}
	tOn, tOff := opsOn/on.Seconds(), opsOff/off.Seconds()
	return 100 * (tOff - tOn) / tOff
}

// commit is the git revision the binary was built from, when the build
// saw a repository.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	return "unknown"
}

func printTable(name string, res *result) {
	fmt.Fprintf(os.Stderr, "%s: correct=%v attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Fprintf(os.Stderr, "  %-28s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func dedupe(xs []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

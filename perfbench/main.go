// Command perfbench is the psk end-to-end benchmark. One invocation runs
// one workload for a fixed time from a seed and prints, as the last line
// of standard output, a JSON object with the correctness verdict, the op
// counts and the metrics:
//
//	bash perfbench/run.sh --workload release-1m --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (set-up time, op
// latency, throughput, allocation, peak memory); with --trace 1 a
// separate traced run wraps spans around the calls into each layer and
// reports the per-layer metrics. README.md lists the workloads, the
// metrics and which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// workload is one set of inputs plus the op the benchmark repeats on it.
type workload interface {
	// op runs op i. The returned verify, when non-nil, checks the op's
	// output outside the op's timing.
	op(i int, ot opTrace) (verify func() error, err error)
	// check runs the end-of-run correctness checks, outside the timed
	// phase.
	check() error
	// inputs describes the input size for the environment stamp.
	inputs() inputStamp
	close()
}

// replayer measures, in the traced run, the layers the program reaches
// only internally by replaying the same calls into their public
// functions on the same inputs and nodes.
type replayer interface {
	replays() int
	replay(r int, ot opTrace) error
}

// preparer runs once after the last set-up, outside both setup_s and the
// timed phase: reference outputs for the checks, counter baselines.
type preparer interface{ prepare() error }

// counter reports per-layer counts read once at the end of the traced
// run (the service's /metrics counters).
type counter interface{ layerCounts() map[string]float64 }

type inputStamp struct {
	Rows        int    `json:"rows"`
	CSVBytes    int    `json:"csv_bytes"`
	LatticeSize int    `json:"lattice_size"`
	Detail      string `json:"detail"`
}

// spec names a workload and how to drive it.
type spec struct {
	name string
	why  string
	// clients is the number of closed-loop clients.
	clients int
	// cycle is the number of ops in one pass over the workload's
	// configuration ladder; the timed phase ends on a whole cycle.
	cycle int
	// warmup is the number of untimed ops run before the timed phase,
	// so lazy runtime set-up (heap growth, first-touch page faults) is
	// not charged to the first timed ops. Their outcomes still count.
	warmup int
	setup  func(seed int64) (workload, error)
}

var specs = []spec{releaseSpec, latticeSpec, serviceSpec}

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 3

// traceDir is where a traced run writes its spans, relative to the
// directory the benchmark runs in.
var traceDir = filepath.Join(".bench_build", "trace")

// Failure kinds an op can end with; all of them count toward fail_frac.
const (
	kindFailed = iota
	kindRefused
	kindWrong
)

type opError struct {
	kind int
	err  error
}

func (e *opError) Error() string { return e.err.Error() }
func (e *opError) Unwrap() error { return e.err }

func wrongf(format string, a ...any) error {
	return &opError{kind: kindWrong, err: fmt.Errorf(format, a...)}
}

func refusedf(format string, a ...any) error {
	return &opError{kind: kindRefused, err: fmt.Errorf(format, a...)}
}

// metricDef is one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of every untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"ops_per_s", "1/s"},
	{"alloc_mb_per_op", "MiB"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics of every traced run. A layer a workload never
// calls into reports 0.
var perLayer = []metricDef{
	{"table.csv_parse_ms", "ms"},
	{"table.csv_encode_ms", "ms"},
	{"table.base_scan_ms", "ms"},
	{"table.rollup_ms", "ms"},
	{"table.rollup_calls", "count"},
	{"core.bounds_ms", "ms"},
	{"core.verdict_ms", "ms"},
	{"core.verdict_calls", "count"},
	{"generalize.level_map_ms", "ms"},
	{"generalize.level_map_calls", "count"},
	{"generalize.materialize_ms", "ms"},
	{"search.total_ms", "ms"},
	{"search.self_ms", "ms"},
	{"search.nodes_evaluated", "count"},
	{"search.pruned_condition2", "count"},
	{"search.group_scans", "count"},
	{"search.evaluated_frac", "ratio"},
	{"serve.submit_ms", "ms"},
	{"serve.wait_run_ms", "ms"},
	{"serve.status_ms", "ms"},
	{"serve.cache_hit_frac", "ratio"},
	{"serve.coalesced_frac", "ratio"},
	{"serve.polls_per_job", "count"},
	{"serve.rejected_frac", "ratio"},
	{"trace.attributed_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// replayedChildren are the search's layers measured by replay; the
// search's self time is its serial time minus these.
var replayedChildren = []string{
	"core.bounds", "table.base_scan", "generalize.level_map",
	"table.rollup", "core.verdict", "generalize.materialize",
}

// serialSelf is the median over replays of the search's own time: a
// serial (Workers=1) run of the search minus the replayed layer
// children on the same input. Both sides are serial, so the remainder is
// the engine's own work (node walk, roll-up store, stats merging) rather
// than an artefact of comparing a parallel wall time with serial layer
// times. 0 when the workload has no replay.
func serialSelf(tr *tracer) float64 {
	serial := tr.perOp("search.serial")
	children := make([]map[int]float64, len(replayedChildren))
	for i, c := range replayedChildren {
		children[i] = tr.perOp(c)
	}
	var selfs []float64
	for op, total := range serial {
		cs := make([]float64, len(children))
		for i, c := range children {
			cs[i] = c[op]
		}
		selfs = append(selfs, remainder(total, cs...))
	}
	return median(selfs)
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(specNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := lookup(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(specNames(), ", "))
		return 2
	}
	r, err := measure(sp, *seed, *seconds, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", sp.name, err)
		return 1
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func lookup(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

func specNames() []string {
	var out []string
	for _, s := range specs {
		out = append(out, s.name)
	}
	return out
}

// measure sets the workload up setupReps times, runs the timed phase on
// the last set-up, checks the outputs and computes the metrics. It
// writes the environment stamp and a readable summary to out.
func measure(sp spec, seed int64, seconds float64, traced bool, out io.Writer) (result, error) {
	var w workload
	var setups []float64
	for r := 0; r < setupReps; r++ {
		if w != nil {
			w.close()
			w = nil
		}
		runtime.GC()
		start := time.Now()
		nw, err := sp.setup(seed)
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		w = nw
	}
	defer w.close()
	if p, ok := w.(preparer); ok {
		if err := p.prepare(); err != nil {
			return result{}, fmt.Errorf("prepare: %w", err)
		}
	}
	runtime.GC()

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	lr := runLoop(w, sp, seconds, tr)
	if err := w.check(); err != nil {
		// A failed end-of-run check condemns the last op's output.
		lr.tally(wrongf("end-of-run check: %v", err), false)
	}
	if lr.firstErr != nil {
		fmt.Fprintf(out, "# first failure: %v\n", lr.firstErr)
	}
	r := result{
		Correct:   lr.out.wrong == 0 && lr.out.failed == 0,
		Attempted: lr.out.attempted,
		Failed:    lr.out.bad(),
		Metrics:   make(map[string]metric),
	}
	if len(lr.untraced) == 0 {
		return result{}, errors.New("no untraced op completed")
	}

	stamp := envStamp(sp, seed, seconds, traced, w.inputs())
	stamp["ops"] = len(lr.untraced) + len(lr.traced)
	stamp["traced_ops"] = len(lr.traced)
	if traced {
		if err := layerMetrics(w, tr, lr, &r); err != nil {
			return result{}, err
		}
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", sp.name, seed))
		if err := tr.write(path); err != nil {
			return result{}, err
		}
		stamp["trace_file"] = path
	} else {
		set := func(name string, v float64) { r.Metrics[name] = metric{v, unitOf(endToEnd, name)} }
		set("setup_s", median(setups))
		set("op_ms_p50", percentile(lr.untraced, 50))
		set("op_ms_p90", percentile(lr.untraced, 90))
		set("ops_per_s", float64(lr.completed)/lr.wall.Seconds())
		set("alloc_mb_per_op", allocMBPerOp(lr.alloc, lr.completed))
		set("peak_rss_mb", peakRSSMB())
		stamp["setup_s_samples"] = setups
		stamp["op_samples"] = len(lr.untraced)
		if len(lr.untraced) <= 32 {
			stamp["op_ms_samples"] = lr.untraced
		}
		stamp["p90_samples_beyond"] = beyond(len(lr.untraced), 90)
		stamp["p90_resolved"] = tailResolved(len(lr.untraced), 90)
	}
	stamp["fail_frac"] = lr.out.failFrac()
	stamp["errored"], stamp["refused"], stamp["wrong"] = lr.out.failed, lr.out.refused, lr.out.wrong
	if err := writeSummary(out, stamp, r); err != nil {
		return result{}, err
	}
	return r, nil
}

// layerMetrics fills the per-layer metrics of a traced run: the replays
// first (outside the timed phase), then the medians over op spans.
func layerMetrics(w workload, tr *tracer, lr loopResult, r *result) error {
	if rp, ok := w.(replayer); ok {
		for i := 0; i < rp.replays(); i++ {
			op := -(i + 1)
			ot := opTrace{t: tr, op: op}
			ot.root = tr.begin(op, 0, "replay")
			err := rp.replay(i, ot)
			tr.end(ot.root)
			if err != nil {
				return fmt.Errorf("replay: %w", err)
			}
		}
	}
	vals := make(map[string]float64)
	for _, m := range perLayer {
		if m.unit == "ms" {
			vals[m.name] = tr.layerMs(strings.TrimSuffix(m.name, "_ms"))
		} else {
			vals[m.name] = tr.countMedian(m.name)
		}
	}
	vals["search.self_ms"] = serialSelf(tr)
	if c, ok := w.(counter); ok {
		for k, v := range c.layerCounts() {
			vals[k] = v
		}
	}
	if size := w.inputs().LatticeSize; size > 0 {
		vals["search.evaluated_frac"] = vals["search.nodes_evaluated"] / float64(size)
	}
	vals["trace.attributed_frac"] = tr.attributed("op")
	if u := percentile(lr.untraced, 50); u > 0 && len(lr.traced) > 0 {
		vals["trace.overhead_frac"] = percentile(lr.traced, 50)/u - 1
	}
	for _, m := range perLayer {
		r.Metrics[m.name] = metric{vals[m.name], m.unit}
	}
	return nil
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// writeSummary prints the environment stamp and every metric by name
// with its unit, as comment lines ahead of the result line.
func writeSummary(out io.Writer, stamp map[string]any, r result) error {
	raw, err := json.Marshal(stamp)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# stamp %s\n", raw)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "# %-28s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprintf(out, "# %-28s %14.4f (%d bad of %d attempted)\n", "fail_frac", stamp["fail_frac"], r.Failed, r.Attempted)
	return nil
}

// loopResult is what the timed phase measured.
type loopResult struct {
	untraced, traced []float64 // latencies of timed ops in ms
	// out counts every op, warm-up included; completed counts the timed
	// ops that completed correctly.
	out       outcomes
	completed int
	firstErr  error
	// wall is the timed phase's wall time with the output checks between
	// ops taken out.
	wall time.Duration
	// alloc is the heap bytes allocated by the timed phase.
	alloc uint64
}

// tally counts one op outcome; attempted is false for a verdict on an
// op already counted.
func (r *loopResult) tally(err error, attempted bool) {
	if attempted {
		r.out.attempted++
	}
	if err == nil {
		return
	}
	var oe *opError
	switch {
	case errors.As(err, &oe) && oe.kind == kindWrong:
		r.out.wrong++
	case errors.As(err, &oe) && oe.kind == kindRefused:
		r.out.refused++
	default:
		r.out.failed++
	}
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// runLoop runs ops 0 to sp.warmup-1 untimed, then sp.clients closed-loop
// clients, each starting its next op when the previous one completes,
// from op 0 again until seconds of timed work have passed and the
// current ladder cycle is complete. In a traced run every other cycle of
// ops is traced, so the untraced ops give the tracing overhead.
func runLoop(w workload, sp spec, seconds float64, tr *tracer) loopResult {
	var res loopResult
	for i := 0; i < sp.warmup; i++ {
		verify, err := w.op(i, opTrace{})
		if err == nil && verify != nil {
			err = verify()
		}
		res.tally(err, true)
	}

	budget := time.Duration(seconds * float64(time.Second))
	var (
		mu     sync.Mutex
		next   int
		paused time.Duration
	)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	start := time.Now()

	client := func() {
		for {
			mu.Lock()
			i := next
			if i%sp.cycle == 0 && time.Since(start)-paused >= budget {
				mu.Unlock()
				return
			}
			next++
			mu.Unlock()

			ot := opTrace{}
			traced := tr != nil && (i/sp.cycle)%2 == 1
			if traced {
				ot = opTrace{t: tr, op: i, root: tr.begin(i, 0, "op")}
			}
			t0 := time.Now()
			verify, err := w.op(i, ot)
			d := float64(time.Since(t0)) / 1e6
			if traced {
				tr.end(ot.root)
			}
			if err == nil && verify != nil {
				// The check is not part of the op: its time is taken out of
				// the timed phase (its allocations are small and stay in).
				tv := time.Now()
				err = verify()
				mu.Lock()
				paused += time.Since(tv)
				mu.Unlock()
			}

			mu.Lock()
			if traced {
				res.traced = append(res.traced, d)
			} else {
				res.untraced = append(res.untraced, d)
			}
			if err == nil {
				res.completed++
			}
			res.tally(err, true)
			mu.Unlock()
		}
	}

	var wg sync.WaitGroup
	for c := 0; c < sp.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client()
		}()
	}
	wg.Wait()
	res.wall = time.Since(start) - paused
	runtime.ReadMemStats(&ms)
	res.alloc = ms.TotalAlloc - alloc0
	return res
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MiB, or
// the runtime's view of memory obtained from the OS where /proc is not
// available.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			var kb float64
			if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

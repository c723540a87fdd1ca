// Command e2ebench is RubberBand's end-to-end benchmark. It runs one
// named workload through the whole pipeline — spec → plan (Monte-Carlo
// sampling of the DAG) → execute on the virtual clock → journal → HTTP —
// checks the outputs, and prints every metric by name with its unit.
//
// Usage (from the repository root):
//
//	bash e2ebench/run.sh --workload paper-sha --seed 1 --seconds 10 --trace 0
//	bash e2ebench/run.sh --workload all --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics of an untraced run; with --trace 1 it carries the
// per-layer metrics of a traced run (spans recorded around every call the
// benchmark makes into a layer). README.md documents the workloads, the
// metrics and which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric names one reported quantity.
type metric struct {
	name, unit, better string
}

// endToEnd is the gated list (BENCHMARK.json "end_to_end"): reported by
// every workload with --trace 0. Only metrics that repeat across seeds
// and runs within their bound on every workload are gated; README.md
// gives the measured spreads of the others.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"sim_cost_usd_p50", "USD", "lower"},
}

// userMetrics are the end-to-end quantities the human table prints for
// an untraced run (n/a where a workload has no such quantity). Those
// outside endToEnd travel in the per-layer JSON, from the untraced phase
// of a traced run, under the names in layerAlias.
var userMetrics = []metric{
	{"setup_s", "s", "lower"},
	{"exp_wall_ms_p50", "ms", "lower"},
	{"exp_wall_ms_p99", "ms", "lower"},
	{"exp_per_s", "1/s", "higher"},
	{"cpu_ms_per_exp", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"fail_frac", "frac", "lower"},
	{"sim_cost_usd_mean", "USD", "lower"},
	{"sim_cost_usd_p50", "USD", "lower"},
	{"deadline_miss_frac", "frac", "lower"},
	{"submit_ms_p99", "ms", "lower"},
	{"status_ms_p99", "ms", "lower"},
}

var layerAlias = map[string]string{
	"exp_wall_ms_p50":    "bench.exp_wall_ms_p50",
	"exp_wall_ms_p99":    "bench.exp_wall_ms_p99",
	"exp_per_s":          "bench.exp_per_s",
	"cpu_ms_per_exp":     "bench.cpu_ms_per_exp",
	"fail_frac":          "bench.fail_frac",
	"sim_cost_usd_mean":  "outcome.sim_cost_usd_mean",
	"deadline_miss_frac": "outcome.deadline_miss_frac",
	"submit_ms_p99":      "serve.submit_ms_p99",
	"status_ms_p99":      "serve.status_ms_p99",
}

// perLayer is BENCHMARK.json "per_layer": reported by every workload with
// --trace 1, as 0 where the workload never enters the layer.
var perLayer = []metric{
	{"bench.exp_wall_ms_p50", "ms", "lower"},
	{"bench.exp_wall_ms_p99", "ms", "lower"},
	{"bench.exp_per_s", "1/s", "higher"},
	{"bench.cpu_ms_per_exp", "ms", "lower"},
	{"sim.new_us_p50", "us", "lower"},
	{"sim.estimate_us_p50", "us", "lower"},
	{"dag.compile_us_p50", "us", "lower"},
	{"dag.sample_ns_per_node", "ns", "lower"},
	{"sim.pred_jct_ratio_p50", "ratio", "lower"},
	{"sim.pred_cost_ratio_p50", "ratio", "lower"},
	{"planner.plan_ms_p50", "ms", "lower"},
	{"planner.plan_ms_p99", "ms", "lower"},
	{"planner.estimate_calls_per_plan", "count", "lower"},
	{"planner.pruned_frac", "frac", "higher"},
	{"replan.replan_us_p50", "us", "lower"},
	{"replan.prescreen_us_p50", "us", "lower"},
	{"replan.decisions_per_exp", "count", "lower"},
	{"replan.adopted_frac", "frac", "lower"},
	{"executor.exec_ms_p50", "ms", "lower"},
	{"executor.events_per_exp", "count", "lower"},
	{"executor.ns_per_event", "ns", "lower"},
	{"executor.preemptions_per_exp", "count", "lower"},
	{"journal.append_us_p50", "us", "lower"},
	{"journal.snapshot_us_p50", "us", "lower"},
	{"journal.records_per_exp", "count", "lower"},
	{"journal.bytes_per_exp", "B", "lower"},
	{"journal.files_per_exp", "count", "lower"},
	{"os.sys_cpu_frac", "frac", "lower"},
	{"serve.queue_wait_ms_p50", "ms", "lower"},
	{"serve.queue_wait_ms_p99", "ms", "lower"},
	{"serve.run_ms_p50", "ms", "lower"},
	{"serve.live_peak", "count", "lower"},
	{"serve.grants_per_exp", "count", "lower"},
	{"serve.shrunk_grant_frac", "frac", "lower"},
	{"serve.rejects", "count", "lower"},
	{"serve.sim_cost_usd_mean", "USD", "lower"},
	{"serve.deadline_miss_frac", "frac", "lower"},
	{"serve.replay_verify_ms_p50", "ms", "lower"},
	{"serve.submit_ms_p99", "ms", "lower"},
	{"serve.status_ms_p99", "ms", "lower"},
	{"go.alloc_kb_per_exp", "KB", "lower"},
	{"go.gc_cpu_frac", "frac", "lower"},
	{"self.bench_frac", "frac", "lower"},
	{"self.sim_frac", "frac", "lower"},
	{"self.planner_frac", "frac", "lower"},
	{"self.harness_frac", "frac", "lower"},
	{"self.executor_frac", "frac", "lower"},
	{"self.journal_frac", "frac", "lower"},
	{"outcome.sim_cost_usd_mean", "USD", "lower"},
	{"outcome.deadline_miss_frac", "frac", "lower"},
	{"bench.fail_frac", "frac", "lower"},
	{"bench.gen_lag_ms_p99", "ms", "lower"},
	{"bench.trace_overhead_frac", "frac", "lower"},
	{"bench.nproc", "count", "lower"},
	{"bench.gomaxprocs", "count", "lower"},
}

// notApplicable lists, per workload, the human-table metrics the workload
// has no meaning for (printed as n/a).
var notApplicable = map[string][]string{
	"paper-sha":     {"submit_ms_p99", "status_ms_p99"},
	"chaos-mix":     {"submit_ms_p99", "status_ms_p99"},
	"serve-durable": {"deadline_miss_frac"},
}

// scratchRoot holds each run's data directories (removed when the run
// ends) and the span files of traced runs, inside the build directory
// run.sh keeps out of version control.
var scratchRoot = filepath.Join(".bench_build", "scratch")

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	scratch string // per-run scratch directory, removed at exit
}

// report is a workload's outcome: attempt and failure counts (timed
// experiments plus correctness-gate items) and every computed metric.
type report struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
	spans             *tracer
}

func newReport() *report { return &report{values: map[string]float64{}} }

// fail records one failed attempt; the first few reasons are kept.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// gate records one correctness-gate item.
func (r *report) gate(err error) {
	r.attempted++
	if err != nil {
		r.fail("gate: %v", err)
	}
}

var workloads = map[string]func(runConfig) (*report, error){
	"paper-sha":     runPaperSHA,
	"chaos-mix":     runChaosMix,
	"serve-durable": runServeDurable,
}

// workloadOrder is the order --workload all runs them in.
var workloadOrder = []string{"paper-sha", "chaos-mix", "serve-durable"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: paper-sha, chaos-mix, serve-durable or all")
		seed    = fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = fs.Float64("seconds", 10, "measured seconds per run")
		trace   = fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadOrder
	}
	for _, n := range names {
		if workloads[n] == nil {
			fmt.Fprintf(stderr, "e2ebench: unknown workload %q\n", *name)
			return 2
		}
	}
	if *trace != 0 && *trace != 1 || !(*seconds > 0) {
		fmt.Fprintln(stderr, "e2ebench: --trace must be 0 or 1 and --seconds positive")
		return 2
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	fmt.Fprintf(stdout, "# e2ebench seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d go=%s\n",
		*seed, *seconds, *trace, nproc, runtime.GOMAXPROCS(0), runtime.Version())

	out := result{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, n := range names {
		dir := filepath.Join(scratchRoot, fmt.Sprintf("%s-%d", n, os.Getpid()))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
		cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, scratch: dir}
		rep, err := workloads[n](cfg)
		if err == nil && rep.spans != nil {
			err = rep.spans.writeSpans(filepath.Join(scratchRoot, fmt.Sprintf("%s-seed%d.spans.csv", n, *seed)))
		}
		if rmErr := os.RemoveAll(dir); err == nil {
			err = rmErr
		}
		if err != nil {
			fmt.Fprintf(stderr, "e2ebench: %s: %v\n", n, err)
			return 1
		}
		rep.values["bench.nproc"] = float64(nproc)
		rep.values["bench.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
		rep.values["fail_frac"] = ratio(float64(rep.failed), float64(rep.attempted))
		rep.values["bench.fail_frac"] = rep.values["fail_frac"]
		printTable(stdout, n, rep, cfg.trace)
		prefix := ""
		if len(names) > 1 {
			prefix = n + "/"
		}
		if err := out.add(rep, cfg.trace, prefix); err != nil {
			fmt.Fprintf(stderr, "e2ebench: %s: %v\n", n, err)
			return 1
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// jsonMetric and result are the last-line JSON schema.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// add folds one workload's report into the JSON result: the end-to-end
// list for an untraced run, the per-layer list for a traced one.
func (r *result) add(rep *report, traced bool, prefix string) error {
	r.Attempted += rep.attempted
	r.Failed += rep.failed
	r.Correct = r.Correct && rep.failed == 0 && rep.attempted > 0
	list := endToEnd
	if traced {
		list = perLayer
	}
	for _, m := range list {
		v, ok := rep.values[m.name]
		if !ok && !traced {
			return fmt.Errorf("end-to-end metric %s was not measured", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errors.New("metric " + m.name + " is not finite")
		}
		r.Metrics[prefix+m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	return nil
}

// printTable prints the human-readable table: the eleven end-to-end
// metrics (n/a where the workload has no such quantity), then, for a
// traced run, every per-layer metric.
func printTable(w io.Writer, name string, rep *report, traced bool) {
	fmt.Fprintf(w, "## %s: attempted=%d failed=%d\n", name, rep.attempted, rep.failed)
	for _, p := range rep.problems {
		fmt.Fprintf(w, "#   failure: %s\n", p)
	}
	na := map[string]bool{}
	for _, n := range notApplicable[name] {
		na[n] = true
	}
	row := func(m metric, v float64, ok bool) {
		val := "n/a"
		if ok {
			val = fmt.Sprintf("%.6g", v)
		}
		fmt.Fprintf(w, "%-34s %14s %-6s %s\n", m.name, val, m.unit, m.better)
	}
	if !traced {
		for _, m := range userMetrics {
			v, ok := rep.values[m.name]
			row(m, v, ok && !na[m.name])
		}
		return
	}
	names := make([]string, 0, len(perLayer))
	byName := map[string]metric{}
	for _, m := range perLayer {
		names = append(names, m.name)
		byName[m.name] = m
	}
	sort.SliceStable(names, func(i, j int) bool {
		return strings.SplitN(names[i], ".", 2)[0] < strings.SplitN(names[j], ".", 2)[0]
	})
	for _, n := range names {
		v := rep.values[n]
		row(byName[n], v, true)
	}
}

// timeLimit bounds one measured phase: a run measures for cfg.seconds
// but keeps going until its minimum experiment count is reached, never
// longer than this cap (so a slow machine still finishes in time).
func timeLimit(seconds float64) time.Duration {
	return time.Duration((3*seconds + 20) * float64(time.Second))
}

package main

import (
	"time"
)

const (
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps = 7
	// warmupIndex is the first experiment index set-up runs use, far
	// above any index a measured run reaches.
	warmupIndex = 1 << 30
)

// expOutcome is what the untimed check of one experiment extracts.
type expOutcome struct {
	problem string // non-empty: the experiment failed
	cost    float64
	planned bool
	missed  bool // realised JCT above the deadline (planned runs only)

	events, preemptions int
	decisions, adopted  int
	jctRatio, costRatio float64 // realised ÷ predicted; 0 when unplanned
	fingerprint         uint64  // identifies the result, for traced-vs-untraced checks
}

// loopSpec sizes a closed-loop phase.
type loopSpec struct {
	seconds  float64
	minCount int
	// prefix is how many leading experiments the outcome metrics
	// average, so they are a pure function of the seed.
	prefix int
	// detail keeps each experiment's result fingerprint and prediction
	// ratios, which traced runs compare and report.
	detail bool
}

// window accumulates the experiments that started in one of a phase's
// equal time windows.
type window struct {
	walls          []float64 // ms
	wallSum, cpuMS float64
}

// phase is one measured closed-loop run. Experiments fold into running
// aggregates as they finish, so the benchmark's own memory does not grow
// with the number of experiments a run gets through (peak_rss_mb measures
// the program, not the benchmark's records).
type phase struct {
	spec  loopSpec
	span  float64 // s the loop ran
	use   usage
	rss   *rssSampler
	n     int
	walls []float32 // ms, every experiment, for the whole-run p99

	cur                     window
	curIdx                  int
	winP50, winRate, winCPU []float64

	problems []string
	failed   int

	costs           []float64 // first prefix experiments
	planned, missed int       // among the first prefix experiments

	events, preemptions, decisions, adopted int
	jctRatios, costRatios                   []float64 // detail only
	fingerprints                            []uint64  // detail only
}

// closedLoop runs a single caller that issues experiment i+1 only after
// experiment i returned. do makes the timed call and reports its wall
// time; check inspects the result outside the timed region. The loop
// measures for at least spec.seconds and at least spec.minCount
// experiments, and stops at the time limit whatever the count.
func closedLoop[T any](spec loopSpec, do func(i int) (T, time.Duration), check func(i int, v T) expOutcome) *phase {
	start := time.Now()
	ph := &phase{spec: spec, rss: newRSSSampler(start)}
	want := time.Duration(spec.seconds * float64(time.Second))
	limit := timeLimit(spec.seconds)
	for i := 0; ; i++ {
		since := time.Since(start)
		if since >= limit || since >= want && i >= spec.minCount {
			break
		}
		before := readUsage()
		v, wall := do(i)
		after := readUsage()
		var u usage
		u.add(before, after)
		ph.use.add(before, after)
		ph.add(min(int(since*windows/want), windows-1), ms(wall), ms(u.cpu()), check(i, v))
		ph.rss.sample()
	}
	ph.flush()
	ph.span = time.Since(start).Seconds()
	return ph
}

// add folds one experiment that started in window w.
func (ph *phase) add(w int, wallMS, cpuMS float64, o expOutcome) {
	if w != ph.curIdx {
		ph.flush()
		ph.curIdx = w
	}
	ph.cur.walls = append(ph.cur.walls, wallMS)
	ph.cur.wallSum += wallMS
	ph.cur.cpuMS += cpuMS
	ph.walls = append(ph.walls, float32(wallMS))

	if o.problem != "" {
		ph.failed++
		if len(ph.problems) < 8 {
			ph.problems = append(ph.problems, o.problem)
		}
	}
	if ph.n < ph.spec.prefix {
		ph.costs = append(ph.costs, o.cost)
		if o.planned {
			ph.planned++
			if o.missed {
				ph.missed++
			}
		}
	}
	ph.n++
	ph.events += o.events
	ph.preemptions += o.preemptions
	ph.decisions += o.decisions
	ph.adopted += o.adopted
	if ph.spec.detail {
		ph.fingerprints = append(ph.fingerprints, o.fingerprint)
		if o.jctRatio > 0 {
			ph.jctRatios = append(ph.jctRatios, o.jctRatio)
			ph.costRatios = append(ph.costRatios, o.costRatio)
		}
	}
}

// flush closes the current window.
func (ph *phase) flush() {
	c := ph.cur
	if n := float64(len(c.walls)); n > 0 {
		ph.winP50 = append(ph.winP50, percentile(c.walls, 50))
		ph.winRate = append(ph.winRate, ratio(n*1e3, c.wallSum))
		ph.winCPU = append(ph.winCPU, c.cpuMS/n)
	}
	ph.cur = window{walls: c.walls[:0]}
}

// windows is how many equal spans of a run's time the steady-state
// metrics are computed over; each metric reports the median across
// spans, so a short disturbance from outside the process (another
// tenant of the machine) moves at most a few spans.
const windows = 10

// windowMedian splits samples, ordered by instant, into windows equal
// spans of span seconds and returns the median over the non-empty spans
// of f(lo, hi), where [lo, hi) indexes the samples taken in the span.
func windowMedian(at []float64, span float64, f func(lo, hi int) float64) float64 {
	var vals []float64
	lo := 0
	for w := 1; w <= windows; w++ {
		edge := span * float64(w) / windows
		hi := lo
		for hi < len(at) && (at[hi] < edge || w == windows) {
			hi++
		}
		if hi > lo {
			vals = append(vals, f(lo, hi))
		}
		lo = hi
	}
	return median(vals)
}

// fill writes the end-to-end metrics of a closed-loop phase into rep and
// counts its attempts and failures.
func (ph *phase) fill(rep *report) {
	rep.attempted += ph.n
	rep.failed += ph.failed
	for _, p := range ph.problems {
		if len(rep.problems) < 8 {
			rep.problems = append(rep.problems, p)
		}
	}
	walls := make([]float64, len(ph.walls))
	for i, w := range ph.walls {
		walls[i] = float64(w)
	}
	n := float64(ph.n)
	rep.values["exp_wall_ms_p50"] = median(ph.winP50)
	rep.values["exp_wall_ms_p99"] = percentile(walls, 99)
	rep.values["exp_per_s"] = median(ph.winRate)
	rep.values["cpu_ms_per_exp"] = median(ph.winCPU)
	rep.values["peak_rss_mb"] = ph.rss.peakMB(ph.span)
	rep.values["go.alloc_kb_per_exp"] = ratio(float64(ph.use.allocBytes)/1024, n)
	rep.values["go.gc_cpu_frac"] = ratio(ph.use.gcCPU, ph.use.cpu().Seconds())
	rep.values["os.sys_cpu_frac"] = ratio(float64(ph.use.sys), float64(ph.use.cpu()))
	rep.values["sim_cost_usd_mean"] = mean(ph.costs)
	rep.values["sim_cost_usd_p50"] = median(ph.costs)
	rep.values["deadline_miss_frac"] = ratio(float64(ph.missed), float64(ph.planned))
}

// fillLayers writes the per-layer metrics a closed-loop traced phase
// derives from its outcomes.
func (ph *phase) fillLayers(rep *report) {
	n := float64(ph.n)
	rep.values["executor.events_per_exp"] = ratio(float64(ph.events), n)
	rep.values["executor.preemptions_per_exp"] = ratio(float64(ph.preemptions), n)
	rep.values["replan.decisions_per_exp"] = ratio(float64(ph.decisions), n)
	rep.values["replan.adopted_frac"] = ratio(float64(ph.adopted), float64(ph.decisions))
	rep.values["sim.pred_jct_ratio_p50"] = median(ph.jctRatios)
	rep.values["sim.pred_cost_ratio_p50"] = median(ph.costRatios)
}

// compareTraced checks that the traced phase reproduced the untraced
// phase's results experiment by experiment: tracing must not change what
// the program computes.
func compareTraced(rep *report, base, traced *phase) {
	for i := 0; i < len(base.fingerprints) && i < len(traced.fingerprints); i++ {
		rep.attempted++
		if base.fingerprints[i] != traced.fingerprints[i] {
			rep.fail("experiment %d: traced result %016x differs from untraced %016x",
				i, traced.fingerprints[i], base.fingerprints[i])
		}
	}
}

// fillTraceCommon writes the metrics every traced run reports from its
// spans — layer self-time shares over the experiment trees, the tracing
// overhead against the untraced phase — and the untraced phase's user
// metrics (the values rep held before the traced phase) under their
// per-layer names.
func fillTraceCommon(rep *report, tr *tracer, untraced map[string]float64) {
	for name, layer := range layerAlias {
		if v, ok := untraced[name]; ok {
			rep.values[layer] = v
		}
	}
	shares := layerSelfShares(tr.spans, "bench.exp")
	for _, l := range []string{"bench", "sim", "planner", "harness", "executor", "journal"} {
		rep.values["self."+l+"_frac"] = shares[l]
	}
	rep.values["bench.trace_overhead_frac"] = ratio(rep.values["exp_wall_ms_p50"], untraced["exp_wall_ms_p50"]) - 1
	rep.spans = tr
}

// Command rbbench measures the planning hot path with Go's benchmark
// machinery and emits machine-readable results, so performance
// regressions in the estimator stack are visible in CI and recorded in
// the repository.
//
// It benchmarks sim.Estimate (one plan evaluation, warm caches),
// planner.PlanElastic (a full greedy compilation on a fresh planner and,
// separately, on a fresh simulator) and replan.Controller.Replan (one
// warm online replanning decision: profile refit + tail re-plan + splice)
// at Monte-Carlo sample counts 20 and 100, under all three estimator
// modes, at workers=1 — the configuration the repository's speedup
// claims are stated against. Two mode-independent rows cover the
// analytic fast path on its own: plan_frontier (batch-scoring a
// 128-candidate frontier through the moment-propagation evaluator) and
// replan_prescreen (one read-only analytic drift screen).
//
// With -baseline, rbbench additionally loads a previous result file and
// exits nonzero if any warm plan_elastic row slowed down by more than
// -regression (default 25%), or any row's allocs/op grew by more than
// 10% — the `make bench-plan` gate. Allocation counts do not depend on
// the machine, so their gate is tight and covers every row.
//
// Usage:
//
//	rbbench -out BENCH_plan.json                         # full run
//	rbbench -benchtime 100ms -out /dev/stdout
//	rbbench -baseline BENCH_plan.json -out BENCH_plan.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cloud"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/replan"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/vclock"
	"testing"
)

// Result is one benchmark measurement in the emitted JSON.
type Result struct {
	// Name identifies the benchmark: estimate, plan_elastic (fresh
	// planner, shared simulator), plan_elastic_cold (fresh simulator per
	// iteration), replan (one warm online replanning decision),
	// plan_frontier (one analytic batch-score of a 128-candidate
	// frontier) or replan_prescreen (one read-only analytic drift
	// screen).
	Name string `json:"name"`
	// Samples is the simulator's Monte-Carlo sample count.
	Samples int `json:"samples"`
	// Estimator is the mode ("segment", "full" or "analytic").
	Estimator string `json:"estimator"`
	// Workers is the Monte-Carlo worker bound (always 1 here).
	Workers int `json:"workers"`
	// N is the iteration count the timing averaged over.
	N int `json:"n"`
	// NsPerOp, AllocsPerOp and BytesPerOp are the usual benchmark
	// metrics.
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

func newSimulator(samples int, mode sim.EstimatorMode) (*sim.Simulator, error) {
	s := spec.MustSHA(64, 4, 508, 2)
	prof := sim.ModelTrainProfile{Model: model.ResNet50(), Batch: 512, GPUsPerNode: 4}
	cp := sim.DefaultCloudProfile()
	cp.Overheads = cloud.Overheads{
		QueueDelay:  stats.Deterministic{Value: 5},
		InitLatency: stats.Deterministic{Value: 15},
	}
	return sim.New(s, prof, cp, samples, stats.NewRNG(1), sim.WithWorkers(1), sim.WithEstimator(mode))
}

// newController builds a replanning controller over the same workload as
// newSimulator and feeds it a drifted observation window, so each Replan
// call exercises the full warm path: profile refit, tail re-plan under
// the remaining deadline, and splice.
func newController(samples int, mode sim.EstimatorMode) (*replan.Controller, replan.State, error) {
	s := spec.MustSHA(64, 4, 508, 2)
	prof := sim.ModelTrainProfile{Model: model.ResNet50(), Batch: 512, GPUsPerNode: 4}
	cp := sim.DefaultCloudProfile()
	cp.Overheads = cloud.Overheads{
		QueueDelay:  stats.Deterministic{Value: 5},
		InitLatency: stats.Deterministic{Value: 15},
	}
	ctl, err := replan.NewController(replan.Config{
		Spec:      s,
		Profile:   prof,
		Cloud:     cp,
		Deadline:  900,
		MaxGPUs:   128,
		Samples:   samples,
		Workers:   1,
		Estimator: mode,
		RNG:       stats.NewRNG(2),
	})
	if err != nil {
		return nil, replan.State{}, err
	}
	plan := sim.Uniform(32, s.NumStages())
	gpus := sim.GPUsPerTrial(plan.Alloc[0], s.Stage(0).Trials)
	pred := prof.IterDist(gpus).Mean()
	for i := 0; i < 8; i++ {
		ctl.ObserveIteration(gpus, 1.5*pred, vclock.Time(i))
	}
	state := replan.State{Stage: 0, Now: 100, RemainingIters: s.Stage(0).Iters, Plan: plan}
	return ctl, state, nil
}

// measure runs fn under testing.Benchmark and converts the outcome.
func measure(name string, samples int, mode sim.EstimatorMode, fn func(b *testing.B)) Result {
	r := testing.Benchmark(fn)
	return Result{
		Name:        name,
		Samples:     samples,
		Estimator:   mode.String(),
		Workers:     1,
		N:           r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// loadBaseline reads a previous result file; a missing file is not an
// error (first run), it just disables the regression gate.
func loadBaseline(path string) ([]Result, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var rs []Result
	if err := json.Unmarshal(raw, &rs); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	return rs, nil
}

// allocRegression is the relative allocs/op growth vs the baseline that
// fails any row.
const allocRegression = 0.10

// checkRegression compares the current rows against the baseline and
// reports every warm plan_elastic row whose ns/op grew by more than limit
// (a fraction: 0.25 means +25%) and every row whose allocs/op grew by
// more than allocRegression. Rows absent from the baseline — newly added
// modes — are skipped.
func checkRegression(baseline, current []Result, limit float64) []string {
	type key struct {
		name, est string
		samples   int
	}
	base := make(map[key]Result, len(baseline))
	for _, r := range baseline {
		base[key{r.Name, r.Estimator, r.Samples}] = r
	}
	var bad []string
	for _, r := range current {
		b, ok := base[key{r.Name, r.Estimator, r.Samples}]
		if !ok {
			continue
		}
		if r.Name == "plan_elastic" && b.NsPerOp > 0 && r.NsPerOp > (1+limit)*b.NsPerOp {
			bad = append(bad, fmt.Sprintf("%s samples=%d estimator=%s: %.0f ns/op vs baseline %.0f (+%.0f%%, limit +%.0f%%)",
				r.Name, r.Samples, r.Estimator, r.NsPerOp, b.NsPerOp, 100*(r.NsPerOp/b.NsPerOp-1), 100*limit))
		}
		if float64(r.AllocsPerOp) > (1+allocRegression)*float64(b.AllocsPerOp) {
			bad = append(bad, fmt.Sprintf("%s samples=%d estimator=%s: %d allocs/op vs baseline %d (limit +%.0f%%)",
				r.Name, r.Samples, r.Estimator, r.AllocsPerOp, b.AllocsPerOp, 100*allocRegression))
		}
	}
	return bad
}

func run(benchtime time.Duration, out, baseline string, regression float64) error {
	// testing.Benchmark sizes runs off the -test.benchtime flag; set it
	// explicitly so rbbench behaves the same outside `go test`.
	if err := flag.Lookup("test.benchtime").Value.Set(benchtime.String()); err != nil {
		return err
	}

	base, err := loadBaseline(baseline)
	if err != nil {
		return err
	}

	var results []Result
	for _, samples := range []int{20, 100} {
		for _, mode := range []sim.EstimatorMode{sim.EstimatorSegment, sim.EstimatorFull, sim.EstimatorAnalytic} {
			sm, err := newSimulator(samples, mode)
			if err != nil {
				return err
			}
			plan := sim.Uniform(32, sm.Spec().NumStages())
			if _, err := sm.Estimate(plan); err != nil { // warm caches once
				return err
			}
			results = append(results, measure("estimate", samples, mode, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := sm.Estimate(plan); err != nil {
						b.Fatal(err)
					}
				}
			}))
			results = append(results, measure("plan_elastic", samples, mode, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					p := &planner.Planner{Sim: sm, Deadline: 900, MaxGPUs: 128, Workers: 1}
					if _, err := p.PlanElastic(); err != nil {
						b.Fatal(err)
					}
				}
			}))
			results = append(results, measure("plan_elastic_cold", samples, mode, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					cold, err := newSimulator(samples, mode)
					if err != nil {
						b.Fatal(err)
					}
					p := &planner.Planner{Sim: cold, Deadline: 900, MaxGPUs: 128, Workers: 1}
					if _, err := p.PlanElastic(); err != nil {
						b.Fatal(err)
					}
				}
			}))
			ctl, state, err := newController(samples, mode)
			if err != nil {
				return err
			}
			if _, err := ctl.Replan(state, replan.ReasonDrift); err != nil { // warm once
				return err
			}
			results = append(results, measure("replan", samples, mode, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := ctl.Replan(state, replan.ReasonDrift); err != nil {
						b.Fatal(err)
					}
				}
			}))
			fmt.Fprintf(os.Stderr, "rbbench: samples=%d estimator=%v done\n", samples, mode)
		}
	}

	// The analytic fast path on its own: one batch-score of a whole
	// 128-candidate frontier (the planner's phase-one workload), and one
	// read-only replan pre-screen (refit + stale-tail rescore + analytic
	// mini-plan). Both are sample-count independent; the row records the
	// simulator's nominal budget.
	{
		const frontier = 128
		sm, err := newSimulator(20, sim.EstimatorAnalytic)
		if err != nil {
			return err
		}
		plans := make([]sim.Plan, frontier)
		for g := 1; g <= frontier; g++ {
			plans[g-1] = sim.Uniform(g, sm.Spec().NumStages())
		}
		eval := sm.NewAnalyticEval()
		ests := make([]sim.Estimate, frontier)
		oks := make([]bool, frontier)
		if err := eval.EstimateBatch(plans, ests, oks); err != nil { // warm caches
			return err
		}
		results = append(results, measure("plan_frontier", 20, sim.EstimatorAnalytic, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := eval.EstimateBatch(plans, ests, oks); err != nil {
					b.Fatal(err)
				}
			}
		}))

		ctl, state, err := newController(20, sim.EstimatorAnalytic)
		if err != nil {
			return err
		}
		if _, err := ctl.PreScreen(state); err != nil {
			return err
		}
		results = append(results, measure("replan_prescreen", 20, sim.EstimatorAnalytic, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ctl.PreScreen(state); err != nil {
					b.Fatal(err)
				}
			}
		}))
		fmt.Fprintln(os.Stderr, "rbbench: analytic fast-path rows done")
	}

	enc, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if out == "-" || out == "/dev/stdout" {
		if _, err := os.Stdout.Write(enc); err != nil {
			return err
		}
	} else if err := os.WriteFile(out, enc, 0o644); err != nil {
		return err
	}

	if bad := checkRegression(base, results, regression); len(bad) > 0 {
		for _, line := range bad {
			fmt.Fprintln(os.Stderr, "rbbench: REGRESSION:", line)
		}
		return fmt.Errorf("%d planning regression(s) beyond the limits", len(bad))
	}
	if baseline != "" && len(base) > 0 {
		fmt.Fprintf(os.Stderr, "rbbench: no warm planning slowdown beyond %.0f%% and no allocation growth beyond %.0f%% vs %s\n",
			100*regression, 100*allocRegression, baseline)
	}
	return nil
}

func main() {
	// testing.Benchmark reads the test flag set; it must be registered
	// before flag.Parse touches it.
	testing.Init()
	var (
		out        = flag.String("out", "BENCH_plan.json", "output path for the JSON results (- for stdout)")
		benchtime  = flag.Duration("benchtime", time.Second, "minimum measuring time per benchmark")
		baseline   = flag.String("baseline", "", "previous result file to gate warm planning regressions against (missing file disables the gate)")
		regression = flag.Float64("regression", 0.25, "relative warm plan_elastic slowdown vs -baseline that fails the run")
	)
	flag.Parse()
	if err := run(*benchtime, *out, *baseline, *regression); err != nil {
		fmt.Fprintln(os.Stderr, "rbbench:", err)
		os.Exit(1)
	}
}

package main

import (
	"fmt"
	"maps"
	"math"
	"time"

	"repro/internal/cloud"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/model"
	"repro/internal/searchspace"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/vclock"
)

// paper-sha: the paper's Table 2 job — ResNet-101 on CIFAR-10,
// SHA(32,1,50,η=3), 5 s queue delay and 15 s instance init, RubberBand
// policy — in a closed loop with one caller. Deadlines rotate through
// 20, 30 and 40 minutes; estimator, sample count and worker count stay
// at their production defaults.
//
// paper-sha also runs the chaos harness's pinned digest gate, so the
// workloads BENCHMARK.json lists (chaos-mix is not among them; README.md
// says why) still check the replan, preemption and fault paths.

// paperDeadlines is the deadline rotation, in minutes.
var paperDeadlines = []int{20, 30, 40}

const (
	// paperMinCount is the fewest experiments behind a run's p99.
	paperMinCount = 1000
	// paperPrefix is how many leading experiments the outcome metrics
	// average: a multiple of the deadline rotation, and below the
	// minimum count, so they are a pure function of the seed.
	paperPrefix = 999
	// The traced run's replan probe injects this latency drift (realised
	// ÷ predicted iteration time) at this fraction of the deadline.
	paperProbeDrift = 1.5
	paperProbeOnset = 0.25
	// paperProbeStream offsets the experiment seed for the replan
	// probe's controller; Experiment.Run uses offsets 1 to 3.
	paperProbeStream = 4
)

// paperExperiment builds experiment i of the workload seeded by seed.
func paperExperiment(seed uint64, i int) *core.Experiment {
	m := model.ResNet101()
	cp := sim.DefaultCloudProfile()
	cp.DatasetGB = m.Dataset.SizeGB
	cp.Overheads = cloud.Overheads{
		QueueDelay:  stats.Deterministic{Value: 5},
		InitLatency: stats.Deterministic{Value: 15},
	}
	return &core.Experiment{
		Model:          m,
		Space:          searchspace.DefaultVisionSpace(),
		Spec:           spec.MustSHA(32, 1, 50, 3),
		Cloud:          cp,
		Deadline:       time.Duration(paperDeadlines[i%len(paperDeadlines)]) * time.Minute,
		Policy:         core.PolicyRubberBand,
		Seed:           deriveSeed(seed, i),
		MaxGPUs:        128,
		RestoreSeconds: 2,
	}
}

// paperFingerprint folds everything a paper-sha result reports.
func paperFingerprint(plan sim.Plan, pred sim.Estimate, act *executor.Result) uint64 {
	words := []uint64{math.Float64bits(pred.JCT), math.Float64bits(pred.Cost),
		math.Float64bits(act.JCT), math.Float64bits(act.Cost), uint64(act.BestTrial)}
	for _, g := range plan.Alloc {
		words = append(words, uint64(g))
	}
	return stats.Hash64(words...)
}

// paperOutcome is the untimed check of one paper-sha result.
func paperOutcome(i int, e *core.Experiment, plan sim.Plan, pred sim.Estimate, act *executor.Result, err error) expOutcome {
	switch {
	case err != nil:
		return expOutcome{problem: fmt.Sprintf("paper-sha %d: %v", i, err)}
	case act == nil || !(act.JCT > 0) || !(act.Cost > 0) || len(plan.Alloc) != e.Spec.NumStages():
		return expOutcome{problem: fmt.Sprintf("paper-sha %d: malformed result", i)}
	}
	return expOutcome{
		cost:        act.Cost,
		planned:     true,
		missed:      act.JCT > e.Deadline.Seconds(),
		preemptions: act.Preemptions,
		jctRatio:    act.JCT / pred.JCT,
		costRatio:   act.Cost / pred.Cost,
		fingerprint: paperFingerprint(plan, pred, act),
	}
}

func runPaperSHA(cfg runConfig) (*report, error) {
	rep := newReport()
	var setups []float64
	for k := 0; k < setupReps; k++ {
		t0 := time.Now()
		if _, err := paperExperiment(cfg.seed, warmupIndex+k).Run(); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.values["setup_s"] = median(setups)

	type ran struct {
		res *core.Result
		err error
	}
	doUntraced := func(i int) (ran, time.Duration) {
		e := paperExperiment(cfg.seed, i)
		t0 := time.Now()
		res, err := e.Run()
		return ran{res, err}, time.Since(t0)
	}
	checkUntraced := func(i int, v ran) expOutcome {
		if v.err != nil || v.res == nil {
			return paperOutcome(i, nil, sim.Plan{}, sim.Estimate{}, nil, fmt.Errorf("run: %v", v.err))
		}
		return paperOutcome(i, paperExperiment(cfg.seed, i), v.res.Plan, v.res.Predicted, v.res.Actual, nil)
	}

	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2
	}
	base := closedLoop(loopSpec{seconds, paperMinCount, paperPrefix, cfg.trace}, doUntraced, checkUntraced)
	base.fill(rep)
	if !cfg.trace {
		gatePaperGolden(rep)
		gateChaosDigest(rep)
		return rep, nil
	}
	untraced := maps.Clone(rep.values)

	tr := newTracer()
	lp := &layerProbes{}
	type tracedRun struct {
		e      *core.Experiment
		p      planned
		act    *executor.Result
		events int
		err    error
	}
	doTraced := func(i int) (tracedRun, time.Duration) {
		e := paperExperiment(cfg.seed, i)
		ps := paperPlanSetup(e)
		t0 := time.Now()
		root := tr.begin("bench.exp", noSpan, int64(i))
		v := tracedRun{e: e}
		v.p, v.err = ps.plan(tr, root, int64(i))
		if v.err == nil && !v.p.ok {
			v.err = fmt.Errorf("planner found no feasible plan")
		}
		if v.err == nil {
			v.act, v.events, v.err = paperExecute(tr, root, int64(i), e, v.p.plan)
		}
		tr.end(root)
		return v, time.Since(t0)
	}
	checkTraced := func(i int, v tracedRun) expOutcome {
		o := paperOutcome(i, v.e, v.p.plan, v.p.est, v.act, v.err)
		if o.problem != "" {
			return o
		}
		o.events = v.events
		lp.planCounters(v.p)
		ps := paperPlanSetup(v.e)
		err := lp.simProbe(tr, int64(i), ps, v.p.plan)
		if err == nil {
			rng := stats.NewRNG(v.e.Seed + paperProbeStream)
			err = replanProbe(tr, int64(i), ps, rng, v.p, 0, 0, paperProbeDrift, paperProbeOnset)
		}
		if err != nil {
			o.problem = fmt.Sprintf("paper-sha %d: probe: %v", i, err)
		}
		return o
	}
	traced := closedLoop(loopSpec{seconds, 0, paperPrefix, true}, doTraced, checkTraced)
	traced.fill(rep)
	traced.fillLayers(rep)
	compareTraced(rep, base, traced)
	lp.fill(rep, tr)
	rep.values["executor.exec_ms_p50"] = percentile(tr.durations("executor.exec"), 50) / 1e6
	rep.values["executor.ns_per_event"] = ratio(tr.selfTotal("executor.exec"), float64(traced.events))
	fillTraceCommon(rep, tr, untraced)
	gatePaperGolden(rep)
	gateChaosDigest(rep)
	return rep, nil
}

// paperPlanSetup mirrors the planning step of Experiment.Plan for e.
func paperPlanSetup(e *core.Experiment) *planSetup {
	return &planSetup{
		spec:    e.Spec,
		profile: sim.ModelTrainProfile{Model: e.Model, Batch: e.Model.BaseBatch, GPUsPerNode: e.Cloud.Instance.GPUs},
		cloud:   e.Cloud,
		samples: e.Samples,
		rng:     stats.NewRNG(e.Seed + 1),
		workers: e.Workers, estimator: e.Estimator,
		maxGPUs:  e.MaxGPUs,
		deadline: e.Deadline.Seconds(),
	}
}

// paperExecute mirrors Experiment.Execute with the substrate set-up and
// the virtual-clock event loop in separate spans, counting events.
func paperExecute(tr *tracer, parent spanID, exp int64, e *core.Experiment, plan sim.Plan) (*executor.Result, int, error) {
	s := tr.begin("executor.start", parent, exp)
	clock := vclock.New()
	rng := stats.NewRNG(e.Seed + 2)
	provider, err := cloud.NewProvider(clock, rng.Split(), e.Cloud.Pricing, e.Cloud.Overheads, e.Cloud.DatasetGB)
	if err != nil {
		tr.end(s)
		return nil, 0, err
	}
	mgr, err := cluster.NewManager(provider, e.Cloud.Instance, clock)
	if err != nil {
		tr.end(s)
		return nil, 0, err
	}
	job, err := executor.Start(executor.Config{
		Spec: e.Spec, Plan: plan, Model: e.Model, Batch: e.Model.BaseBatch,
		Configs:  e.Space.SampleN(stats.NewRNG(e.Seed+3), e.Spec.TotalTrials()),
		Provider: provider, Cluster: mgr, Clock: clock, RNG: rng,
		RestoreSeconds: e.RestoreSeconds,
	})
	tr.end(s)
	if err != nil {
		return nil, 0, err
	}
	s = tr.begin("executor.exec", parent, exp)
	events := 0
	for !job.Done() && clock.Step() {
		events++
	}
	tr.end(s)
	if !job.Done() {
		return nil, events, fmt.Errorf("event queue drained before completion")
	}
	res, err := job.Result()
	return res, events, err
}

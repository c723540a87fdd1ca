package main

import (
	"fmt"
	"maps"
	"time"

	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/stats"
)

// chaos-mix: a closed loop with one caller over the chaos harness's
// generated scenarios, harness.RunScenario(harness.Generate(seed, i)) as
// generated (replan on its per-scenario draw). It is the only traffic that
// reaches replan, the full and analytic estimators, spot preemption,
// provisioning faults and scripted arbiter caps, and its runs are small,
// so executor and vclock event handling carry a large share.

const (
	chaosMinCount = 1000
	// chaosWarmups is how many scenarios one set-up runs.
	chaosWarmups = 64
	// chaosPrefix is how many leading scenarios the outcome metrics
	// average: scenario costs span orders of magnitude, so the mean needs
	// many of them to repeat across seeds.
	chaosPrefix = 16384
)

// Stream indices of the harness's per-scenario RNG tree (see
// harness/scenario.go); the traced run rebuilds the planning step from
// them and checks the rebuilt plan against the executed one.
const (
	chaosStreamSim    = 1
	chaosStreamReplan = 5
)

// chaosOutcome is the untimed check of one scenario run: the harness's
// oracles plus the quantities the metrics need.
func chaosOutcome(sc harness.Scenario, a *harness.Artifacts, err error) expOutcome {
	if err != nil {
		return expOutcome{problem: fmt.Sprintf("chaos %d/%d: %v", sc.BatchSeed, sc.Index, err)}
	}
	if vs := harness.CheckAll(a, harness.DefaultOracles()); len(vs) > 0 {
		return expOutcome{problem: fmt.Sprintf("chaos %d/%d: %d oracle violation(s), first: %s", sc.BatchSeed, sc.Index, len(vs), vs[0])}
	}
	o := expOutcome{
		cost:        a.Result.Cost,
		planned:     a.Planned,
		missed:      a.Planned && a.Result.JCT > a.Deadline,
		events:      a.Steps,
		preemptions: a.Result.Preemptions,
		decisions:   len(a.Result.Replans),
		fingerprint: uint64(harness.ComputeDigest(a)),
	}
	for _, d := range a.Result.Replans {
		if d.Adopted {
			o.adopted++
		}
	}
	if a.Planned {
		o.jctRatio = a.Result.JCT / a.Estimate.JCT
		o.costRatio = a.Result.Cost / a.Estimate.Cost
	}
	return o
}

// chaosPlanSetup rebuilds the planning step of harness.StartScenario.
func chaosPlanSetup(sc harness.Scenario) *planSetup {
	return &planSetup{
		spec:    sc.Spec,
		profile: sim.ModelTrainProfile{Model: sc.Model, Batch: sc.Model.BaseBatch, GPUsPerNode: sc.Profile.Instance.GPUs},
		cloud:   sc.Profile,
		samples: sc.Samples,
		rng:     stats.NewRNG(sc.BatchSeed).Stream(uint64(sc.Index)).Stream(chaosStreamSim),
		workers: 1, estimator: sc.Estimator,
		maxGPUs:        sc.MaxGPUs,
		deadlineFactor: sc.DeadlineFactor,
	}
}

// scenarioProbes runs the planner, sim/dag and replan probes on a
// scenario that ran as a (already checked), and checks that the rebuilt
// planning step reproduces the executed plan.
func (lp *layerProbes) scenarioProbes(tr *tracer, exp int64, sc harness.Scenario, a *harness.Artifacts) error {
	ps := chaosPlanSetup(sc)
	root := tr.begin("probe.plan", noSpan, exp)
	p, err := ps.plan(tr, root, exp)
	tr.end(root)
	if err != nil {
		return err
	}
	if p.ok != a.Planned || p.ok && !p.plan.Equal(a.Plan) {
		return fmt.Errorf("rebuilt plan %v (planned=%v) differs from executed %v (planned=%v)", p.plan, p.ok, a.Plan, a.Planned)
	}
	lp.planCounters(p)
	if !p.ok {
		return nil
	}
	if err := lp.simProbe(tr, exp, ps, p.plan); err != nil {
		return err
	}
	if !sc.ReplanEnabled {
		return nil
	}
	drift, onset := 1.0, 0.0
	if sc.Drift.Active() {
		drift, onset = sc.Drift.Factor, sc.Drift.StartFraction
	}
	rng := stats.NewRNG(sc.BatchSeed).Stream(uint64(sc.Index)).Stream(chaosStreamReplan)
	return replanProbe(tr, exp, ps, rng, p, sc.DriftThreshold, sc.ReplanCooldown, drift, onset)
}

func runChaosMix(cfg runConfig) (*report, error) {
	rep := newReport()
	var setups []float64
	for k := 0; k < setupReps; k++ {
		t0 := time.Now()
		// Set-up generates and runs warm-up scenarios far past the
		// measured indices.
		for j := 0; j < chaosWarmups; j++ {
			if _, err := harness.RunScenario(harness.Generate(cfg.seed, warmupIndex+j)); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.values["setup_s"] = median(setups)

	type ran struct {
		sc  harness.Scenario
		a   *harness.Artifacts
		err error
	}
	doUntraced := func(i int) (ran, time.Duration) {
		sc := harness.Generate(cfg.seed, i)
		t0 := time.Now()
		a, err := harness.RunScenario(sc)
		return ran{sc, a, err}, time.Since(t0)
	}
	checkUntraced := func(_ int, v ran) expOutcome { return chaosOutcome(v.sc, v.a, v.err) }

	if !cfg.trace {
		base := closedLoop(loopSpec{cfg.seconds, chaosPrefix, chaosPrefix, false}, doUntraced, checkUntraced)
		base.fill(rep)
		gateChaosDigest(rep)
		return rep, nil
	}
	base := closedLoop(loopSpec{cfg.seconds / 2, chaosMinCount, chaosPrefix, true}, doUntraced, checkUntraced)
	base.fill(rep)
	untraced := maps.Clone(rep.values)

	tr := newTracer()
	lp := &layerProbes{}
	doTraced := func(i int) (ran, time.Duration) {
		sc := harness.Generate(cfg.seed, i)
		t0 := time.Now()
		root := tr.begin("bench.exp", noSpan, int64(i))
		v := ran{sc: sc}
		s := tr.begin("harness.start", root, int64(i))
		r, err := harness.StartScenario(sc, harness.RunConfig{})
		tr.end(s)
		if err == nil {
			s = tr.begin("executor.exec", root, int64(i))
			for !r.Done() && err == nil {
				err = r.Step()
			}
			tr.end(s)
		}
		if err == nil {
			s = tr.begin("harness.finish", root, int64(i))
			v.a, err = r.Finish()
			tr.end(s)
		}
		v.err = err
		tr.end(root)
		return v, time.Since(t0)
	}
	checkTraced := func(i int, v ran) expOutcome {
		o := chaosOutcome(v.sc, v.a, v.err)
		if o.problem == "" {
			if err := lp.scenarioProbes(tr, int64(i), v.sc, v.a); err != nil {
				o.problem = fmt.Sprintf("chaos %d/%d: probe: %v", v.sc.BatchSeed, v.sc.Index, err)
			}
		}
		return o
	}
	traced := closedLoop(loopSpec{cfg.seconds / 2, 0, chaosPrefix, true}, doTraced, checkTraced)
	traced.fill(rep)
	traced.fillLayers(rep)
	compareTraced(rep, base, traced)
	lp.fill(rep, tr)
	rep.values["executor.exec_ms_p50"] = percentile(tr.durations("executor.exec"), 50) / 1e6
	rep.values["executor.ns_per_event"] = ratio(tr.selfTotal("executor.exec"), float64(traced.events))
	fillTraceCommon(rep, tr, untraced)
	gateChaosDigest(rep)
	return rep, nil
}

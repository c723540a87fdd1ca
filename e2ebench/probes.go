package main

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/planner"
	"repro/internal/replan"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/vclock"
)

// planSetup is everything an experiment's planning step consumes: the
// traced run rebuilds it from public constructors so the benchmark can
// time each layer's calls on its own. The rebuilt plan is checked against
// the one the real run executed.
type planSetup struct {
	spec      *spec.ExperimentSpec
	profile   sim.TrainProfile
	cloud     sim.CloudProfile
	samples   int
	rng       *stats.RNG // sim.New snapshots it; never advanced
	workers   int
	estimator sim.EstimatorMode
	maxGPUs   int
	// deadline is absolute seconds, or, when deadlineFactor > 0, the
	// factor times the analytic static-cluster JCT at maxGPUs (the
	// chaos harness and serve convention).
	deadline       float64
	deadlineFactor float64
}

func (ps *planSetup) newSim() (*sim.Simulator, error) {
	return sim.New(ps.spec, ps.profile, ps.cloud, ps.samples, ps.rng,
		sim.WithWorkers(ps.workers), sim.WithEstimator(ps.estimator))
}

// planned is a planning step's outcome and its planner counters.
type planned struct {
	plan     sim.Plan
	est      sim.Estimate
	ok       bool // false: the planner refused (infeasible deadline)
	deadline float64
	calls    int64
	pruned   int64
}

// plan runs sim.New and PlanElastic under a planner.plan span — the same
// work Experiment.Plan does.
func (ps *planSetup) plan(tr *tracer, parent spanID, exp int64) (planned, error) {
	pl := tr.begin("planner.plan", parent, exp)
	defer tr.end(pl)
	s := tr.begin("sim.new", pl, exp)
	sm, err := ps.newSim()
	tr.end(s)
	if err != nil {
		return planned{}, fmt.Errorf("sim.New: %w", err)
	}
	out := planned{deadline: ps.deadline}
	if ps.deadlineFactor > 0 {
		out.deadline = sm.StaticClusterJCT(ps.maxGPUs) * ps.deadlineFactor
	}
	p := &planner.Planner{Sim: sm, Deadline: out.deadline, MaxGPUs: ps.maxGPUs, Workers: ps.workers}
	s = tr.begin("planner.search", pl, exp)
	res, perr := p.PlanElastic()
	tr.end(s)
	out.plan, out.est, out.ok = res.Plan, res.Estimate, perr == nil
	out.calls, out.pruned = p.EstimateCalls(), p.PrunedCandidates()
	return out, nil
}

// sampleReps is how many Monte-Carlo draws the dag.sample probe makes
// per plan.
const sampleReps = 16

// layerProbes accumulates the per-layer quantities the traced run
// measures beside the experiment trees.
type layerProbes struct {
	plans, estCalls, pruned int64
	sampledNodes            int64
}

// planCounters folds one planning step's counters.
func (lp *layerProbes) planCounters(p planned) {
	lp.plans++
	lp.estCalls += p.calls
	lp.pruned += p.pruned
}

// simProbe times, on a fresh simulator (empty caches, as every new
// experiment starts), one cold Estimate of plan, the DAG compiler on the
// plan's execution graph, and sampleReps Monte-Carlo draws of the
// compiled program.
func (lp *layerProbes) simProbe(tr *tracer, exp int64, ps *planSetup, plan sim.Plan) error {
	sm, err := ps.newSim()
	if err != nil {
		return err
	}
	root := tr.begin("probe.sim", noSpan, exp)
	defer tr.end(root)
	s := tr.begin("sim.estimate", root, exp)
	_, err = sm.Estimate(plan)
	tr.end(s)
	if err != nil {
		return fmt.Errorf("sim.Estimate: %w", err)
	}
	g, err := sm.BuildDAG(plan)
	if err != nil {
		return fmt.Errorf("sim.BuildDAG: %w", err)
	}
	s = tr.begin("dag.compile", root, exp)
	prog := dag.Compile(g)
	tr.end(s)
	r := stats.NewRNG(uint64(exp))
	var buf []dag.Timing
	s = tr.begin("dag.sample", root, exp)
	for k := 0; k < sampleReps; k++ {
		buf, _ = prog.SampleInto(r, buf)
	}
	tr.end(s)
	lp.sampledNodes += int64(sampleReps * prog.Len())
	return nil
}

// replanProbe times the replanning controller on an experiment's own
// spec, profile and deadline: it feeds stage 0 enough iteration
// observations at the injected drift factor to arm the detector, then
// calls PreScreen and Replan at the drift onset with stage 0's
// iterations still to run.
func replanProbe(tr *tracer, exp int64, ps *planSetup, rng *stats.RNG, p planned, threshold, cooldown, drift, onset float64) error {
	if ps.spec.NumStages() < 2 {
		return nil
	}
	ctl, err := replan.NewController(replan.Config{
		Spec: ps.spec, Profile: ps.profile, Cloud: ps.cloud, Deadline: p.deadline,
		MaxGPUs: ps.maxGPUs, Samples: ps.samples, Workers: ps.workers, Estimator: ps.estimator,
		RNG: rng, Threshold: threshold, CooldownSeconds: cooldown,
	})
	if err != nil {
		return fmt.Errorf("replan.NewController: %w", err)
	}
	st := ps.spec.Stage(0)
	gpus := sim.GPUsPerTrial(p.plan.Alloc[0], st.Trials)
	pred := ps.profile.IterDist(gpus).Mean()
	now := vclock.Time(p.deadline * onset)
	for k := 0; k < 3; k++ {
		ctl.ObserveIteration(gpus, pred*drift, now)
	}
	state := replan.State{Stage: 0, Now: now, RemainingIters: st.Iters, Plan: p.plan.Clone()}
	root := tr.begin("probe.replan", noSpan, exp)
	defer tr.end(root)
	s := tr.begin("replan.prescreen", root, exp)
	_, err = ctl.PreScreen(state)
	tr.end(s)
	if err != nil {
		return fmt.Errorf("replan.PreScreen: %w", err)
	}
	s = tr.begin("replan.replan", root, exp)
	_, err = ctl.Replan(state, replan.ReasonDrift)
	tr.end(s)
	if err != nil {
		return fmt.Errorf("replan.Replan: %w", err)
	}
	return nil
}

// fill writes the probe-derived per-layer metrics.
func (lp *layerProbes) fill(rep *report, tr *tracer) {
	us := func(name string, p float64) float64 { return percentile(tr.durations(name), p) / 1e3 }
	rep.values["sim.new_us_p50"] = us("sim.new", 50)
	rep.values["sim.estimate_us_p50"] = us("sim.estimate", 50)
	rep.values["dag.compile_us_p50"] = us("dag.compile", 50)
	rep.values["dag.sample_ns_per_node"] = ratio(tr.total("dag.sample"), float64(lp.sampledNodes))
	rep.values["planner.plan_ms_p50"] = us("planner.plan", 50) / 1e3
	rep.values["planner.plan_ms_p99"] = us("planner.plan", 99) / 1e3
	rep.values["planner.estimate_calls_per_plan"] = ratio(float64(lp.estCalls), float64(lp.plans))
	rep.values["planner.pruned_frac"] = ratio(float64(lp.pruned), float64(lp.pruned+lp.estCalls))
	rep.values["replan.replan_us_p50"] = us("replan.replan", 50)
	rep.values["replan.prescreen_us_p50"] = us("replan.prescreen", 50)
}

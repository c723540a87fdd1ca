package sim_test

import (
	"testing"

	"repro/internal/cloud"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
)

// paperSim returns a simulator for the paper's Table 2 job: ResNet-101 on
// CIFAR-10 under SHA(32,1,50,η=3), 5 s queue delay and 15 s instance
// init, planned serially.
func paperSim(t testing.TB) *sim.Simulator {
	t.Helper()
	m := model.ResNet101()
	cp := sim.DefaultCloudProfile()
	cp.DatasetGB = m.Dataset.SizeGB
	cp.Overheads = cloud.Overheads{
		QueueDelay:  stats.Deterministic{Value: 5},
		InitLatency: stats.Deterministic{Value: 15},
	}
	prof := sim.ModelTrainProfile{Model: m, Batch: m.BaseBatch, GPUsPerNode: cp.Instance.GPUs}
	sm, err := sim.New(spec.MustSHA(32, 1, 50, 3), prof, cp, 0, stats.NewRNG(1), sim.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	return sm
}

// paperPlan runs the planner's cold PlanElastic on a fresh paper-job
// simulator under a deadline in minutes.
func paperPlan(t testing.TB, minutes float64) *sim.Simulator {
	sm := paperSim(t)
	p := &planner.Planner{Sim: sm, Deadline: minutes * 60, MaxGPUs: 128, Workers: 1}
	if _, err := p.PlanElastic(); err != nil {
		t.Fatal(err)
	}
	return sm
}

// TestSegmentProgramsMatchFullDAG: every closed-form stage segment the
// planner has the simulator build samples and moment-propagates bit for
// bit as the compiled stage range of a plan's full execution DAG — on
// the paper job at each benchmark deadline and on every scenario of the
// seed-1 harness corpus.
func TestSegmentProgramsMatchFullDAG(t *testing.T) {
	total := 0
	check := func(name string, sm *sim.Simulator) int {
		t.Helper()
		n, err := sim.CheckSegmentTable(sm)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		total += n
		return n
	}
	for _, minutes := range []float64{20, 30, 40} {
		if check("paper job", paperPlan(t, minutes)) == 0 {
			t.Fatal("paper job: planner built no segments")
		}
	}
	for i := 0; i < 128; i++ {
		sc := harness.Generate(1, i)
		prof := sim.ModelTrainProfile{Model: sc.Model, Batch: sc.Model.BaseBatch, GPUsPerNode: sc.Profile.Instance.GPUs}
		sm, err := sim.New(sc.Spec, prof, sc.Profile, sc.Samples, stats.NewRNG(uint64(i)), sim.WithWorkers(1), sim.WithEstimator(sc.Estimator))
		if err != nil {
			t.Fatal(err)
		}
		p := &planner.Planner{Sim: sm, Deadline: sm.StaticClusterJCT(sc.MaxGPUs) * sc.DeadlineFactor, MaxGPUs: sc.MaxGPUs, Workers: 1}
		_, perr := p.PlanElastic()
		if check(sc.String(), sm) == 0 && perr == nil {
			t.Fatalf("%s: planned without building segments", sc)
		}
	}
	t.Logf("%d segments checked", total)
}

// TestBuildSegmentAllocs pins the allocations of building one stage
// segment: the segment entry and the two boxed latency distributions
// (the profile's iteration latency and its per-stage sum). It measures
// 3; the bound adds 10%.
func TestBuildSegmentAllocs(t *testing.T) {
	sm := paperSim(t)
	for _, c := range []struct{ stage, alloc, prev int }{
		{0, 32, 0},  // cluster grows: SCALE + INITs
		{1, 20, 4},  // cluster shrinks
		{0, 16, 0},  // fewer GPUs than trials: chained trains
		{2, 128, 4}, // growth at a later stage
	} {
		allocs := testing.AllocsPerRun(100, func() { sm.BuildSegment(c.stage, c.alloc, c.prev) })
		if allocs > 3 {
			t.Errorf("buildSegment%+v allocates %v, want <= 3", c, allocs)
		}
	}
}

// TestColdPlanElasticAllocs pins the allocations of one cold paper-job
// plan: a fresh simulator and a serial PlanElastic at the 30-minute
// deadline. It measures 2,242; the bound adds 10%, which also leaves
// room for a garbage collection emptying the analytic-evaluator pool
// mid-plan.
func TestColdPlanElasticAllocs(t *testing.T) {
	const bound = 2466
	allocs := testing.AllocsPerRun(5, func() { paperPlan(t, 30) })
	if allocs > bound {
		t.Fatalf("cold paper-job PlanElastic allocates %v, want <= %d", allocs, bound)
	}
}

// TestSegmentTableBoundedByKeySpace: the segment table needs no
// eviction because its keys come from a finite space fixed by the job
// and the planner's GPU cap. A cold PlanElastic plus PlanStatic on the
// paper job stays inside that space, and planning again over the same
// simulator adds no entries.
func TestSegmentTableBoundedByKeySpace(t *testing.T) {
	const maxGPUs = 128
	sm := paperSim(t)
	space := sim.SegmentKeySpace(sm, maxGPUs)
	plan := func() {
		p := &planner.Planner{Sim: sm, Deadline: 30 * 60, MaxGPUs: maxGPUs, Workers: 1}
		if _, err := p.PlanElastic(); err != nil {
			t.Fatal(err)
		}
		if _, err := p.PlanStatic(); err != nil {
			t.Fatal(err)
		}
	}
	plan()
	cold := sim.SegmentTableKeys(sm)
	for k := range cold {
		if !space[k] {
			t.Fatalf("segment key %v is outside the enumerated key space", k)
		}
	}
	plan()
	if n := len(sim.SegmentTableKeys(sm)); n != len(cold) {
		t.Fatalf("re-planning grew the segment table from %d to %d entries", len(cold), n)
	}
	t.Logf("%d of %d possible segments built", len(cold), len(space))
}

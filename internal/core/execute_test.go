package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/model"
	"repro/internal/searchspace"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/trace"
)

// paperExperiment is the paper's Table 2 job at full size — ResNet-101
// on CIFAR-10, SHA(32, 1, 50, 3), a 20-minute deadline, production
// planning defaults — the job one cold Experiment.Run of the end-to-end
// benchmark's paper-sha workload executes.
func paperExperiment() *Experiment {
	m := model.ResNet101()
	cp := sim.DefaultCloudProfile()
	cp.DatasetGB = m.Dataset.SizeGB
	cp.Overheads = cloud.Overheads{
		QueueDelay:  stats.Deterministic{Value: 5},
		InitLatency: stats.Deterministic{Value: 15},
	}
	return &Experiment{
		Model:          m,
		Space:          searchspace.DefaultVisionSpace(),
		Spec:           spec.MustSHA(32, 1, 50, 3),
		Cloud:          cp,
		Deadline:       20 * time.Minute,
		Policy:         PolicyRubberBand,
		Seed:           1,
		MaxGPUs:        128,
		RestoreSeconds: 2,
	}
}

// paperPlan plans the paper job once.
func paperPlan(tb testing.TB) (*Experiment, sim.Plan) {
	tb.Helper()
	e := paperExperiment()
	res, _, err := e.Plan()
	if err != nil {
		tb.Fatal(err)
	}
	return e, res.Plan
}

// TestExecuteTraceInvisible: recording the event log is observation
// only — the realized result of the paper job is bit-identical with and
// without a recorder.
func TestExecuteTraceInvisible(t *testing.T) {
	e, plan := paperPlan(t)
	bare, err := e.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New()
	e.Trace = rec
	traced, err := e.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Fatal("traced run recorded no events")
	}
	if bare.JCT != traced.JCT || bare.Cost != traced.Cost || bare.Utilization != traced.Utilization ||
		bare.BestTrial != traced.BestTrial || bare.BestAccuracy != traced.BestAccuracy {
		t.Errorf("untraced (jct %v, cost %v, util %v, best %d@%v) != traced (jct %v, cost %v, util %v, best %d@%v)",
			bare.JCT, bare.Cost, bare.Utilization, bare.BestTrial, bare.BestAccuracy,
			traced.JCT, traced.Cost, traced.Utilization, traced.BestTrial, traced.BestAccuracy)
	}
	if !reflect.DeepEqual(bare.Schedule, traced.Schedule) {
		t.Errorf("schedule differs:\nuntraced %+v\ntraced   %+v", bare.Schedule, traced.Schedule)
	}
	if !reflect.DeepEqual(bare.FinalPlan, traced.FinalPlan) {
		t.Errorf("final plan differs: untraced %v, traced %v", bare.FinalPlan, traced.FinalPlan)
	}
	if got, want := traced.Utilization, rec.BusyGPUSeconds(); got <= 0 || want <= 0 {
		t.Errorf("utilization %v with %v busy GPU-seconds recorded", got, want)
	}
}

// maxExecuteAllocs pins the allocations of one untraced Execute of the
// paper plan: 552 measured (go1.24, linux/amd64) plus 10% headroom.
const maxExecuteAllocs = 607

// TestExecuteAllocs pins the executor's allocation budget on the paper
// job, so maps, deep clones or trace formatting creeping back into the
// event loop fail here rather than in a profile.
func TestExecuteAllocs(t *testing.T) {
	e, plan := paperPlan(t)
	var err error
	allocs := testing.AllocsPerRun(5, func() {
		_, err = e.Execute(plan)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Execute: %.0f allocs", allocs)
	if allocs > maxExecuteAllocs {
		t.Errorf("Execute allocated %.0f times, budget %d", allocs, maxExecuteAllocs)
	}
}

// BenchmarkExperimentPlan measures one cold plan of the paper job,
// serially (the default) and with a two-worker fan-out.
func BenchmarkExperimentPlan(b *testing.B) {
	for _, workers := range []int{0, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := paperExperiment()
				e.Workers = workers
				if _, _, err := e.Plan(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExperimentExecute measures one untraced execution of the
// paper plan.
func BenchmarkExperimentExecute(b *testing.B) {
	e, plan := paperPlan(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Execute(plan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExperimentRun measures one cold Run of the paper job, plan
// and execution: the unit the end-to-end benchmark's paper-sha set-up
// time measures.
func BenchmarkExperimentRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := paperExperiment().Run(); err != nil {
			b.Fatal(err)
		}
	}
}

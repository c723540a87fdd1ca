package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/spec"
	"repro/internal/trace"
)

func TestRunMultiJobHyperband(t *testing.T) {
	e := table2Experiment(t, PolicyRubberBand, 20*time.Minute, 41)
	brackets, err := spec.Hyperband(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunMultiJob(brackets, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Brackets) != len(brackets) {
		t.Fatalf("brackets = %d", len(res.Brackets))
	}
	var sum float64
	maxJCT := 0.0
	for i, b := range res.Brackets {
		if b.Actual.JCT <= 0 || b.Actual.Cost <= 0 {
			t.Fatalf("bracket %d: %+v", i, b.Actual)
		}
		sum += b.Actual.Cost
		if b.Actual.JCT > maxJCT {
			maxJCT = b.Actual.JCT
		}
	}
	if res.TotalCost != sum {
		t.Errorf("TotalCost %v != sum %v", res.TotalCost, sum)
	}
	// Concurrent execution: the multi-job's JCT is the slowest bracket,
	// not the sum.
	if res.JCT != maxJCT {
		t.Errorf("JCT %v != max bracket JCT %v", res.JCT, maxJCT)
	}
	if res.BestAccuracy <= 0 || res.BestConfig == nil {
		t.Error("no global winner")
	}
	// The global winner is at least as good as every bracket's winner.
	for i, b := range res.Brackets {
		if b.Actual.BestAccuracy > res.BestAccuracy {
			t.Errorf("bracket %d beat the global winner", i)
		}
	}
}

func TestRunMultiJobValidation(t *testing.T) {
	e := table2Experiment(t, PolicyRubberBand, 20*time.Minute, 42)
	if _, err := e.RunMultiJob(nil, 0); err == nil {
		t.Error("empty bracket list accepted")
	}
}

func TestRunMultiJobDeterministic(t *testing.T) {
	brackets, err := spec.Hyperband(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	runOnce := func() *MultiResult {
		e := table2Experiment(t, PolicyRubberBand, 20*time.Minute, 43)
		res, err := e.RunMultiJob(brackets, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := runOnce(), runOnce()
	if a.TotalCost != b.TotalCost || a.JCT != b.JCT || a.BestAccuracy != b.BestAccuracy {
		t.Fatal("multi-job not deterministic")
	}
}

func TestRunMultiJobSharedCapacityInvariant(t *testing.T) {
	e := table2Experiment(t, PolicyRubberBand, 20*time.Minute, 44)
	brackets, err := spec.Hyperband(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	const capacity = 6
	res, err := e.RunMultiJob(brackets, capacity)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range res.Brackets {
		if len(b.Grants) != b.Spec.NumStages() {
			t.Fatalf("bracket %d: %d grants for %d stages", i, len(b.Grants), b.Spec.NumStages())
		}
		for s, g := range b.Grants {
			if g < 1 {
				t.Errorf("bracket %d stage %d granted %d GPUs, want >= 1", i, s, g)
			}
			if g > b.Plan.Alloc[s] {
				t.Errorf("bracket %d stage %d granted %d > planned %d", i, s, g, b.Plan.Alloc[s])
			}
			if g > capacity {
				t.Errorf("bracket %d stage %d granted %d > capacity %d", i, s, g, capacity)
			}
		}
		// The executed plan must be the granted one.
		for s, g := range b.Grants {
			if b.Actual.FinalPlan.Alloc[s] != g {
				t.Errorf("bracket %d stage %d executed %d GPUs, granted %d", i, s, b.Actual.FinalPlan.Alloc[s], g)
			}
		}
	}
	// The constrained fleet can be no faster than the unconstrained one.
	free, err := table2Experiment(t, PolicyRubberBand, 20*time.Minute, 44).RunMultiJob(brackets, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.JCT < free.JCT {
		t.Errorf("shared-capacity JCT %v beat unconstrained JCT %v", res.JCT, free.JCT)
	}
}

func TestRunMultiJobSharedValidation(t *testing.T) {
	e := table2Experiment(t, PolicyRubberBand, 20*time.Minute, 45)
	brackets, err := spec.Hyperband(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunMultiJob(nil, 8); err == nil {
		t.Error("empty bracket list accepted")
	}
	if _, err := e.RunMultiJob(brackets, len(brackets)-1); err == nil {
		t.Error("capacity below bracket count accepted")
	}
	if _, err := e.RunMultiJob(brackets, -1); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestRunMultiJobSharedDeterministic(t *testing.T) {
	brackets, err := spec.Hyperband(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	runOnce := func() *MultiResult {
		e := table2Experiment(t, PolicyRubberBand, 20*time.Minute, 46)
		res, err := e.RunMultiJob(brackets, 6)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := runOnce(), runOnce()
	if a.TotalCost != b.TotalCost || a.JCT != b.JCT || a.BestAccuracy != b.BestAccuracy {
		t.Fatal("shared multi-job not deterministic")
	}
	for i := range a.Brackets {
		ga, gb := a.Brackets[i].Grants, b.Brackets[i].Grants
		if len(ga) != len(gb) {
			t.Fatalf("bracket %d grant counts differ", i)
		}
		for s := range ga {
			if ga[s] != gb[s] {
				t.Fatalf("bracket %d stage %d grants differ: %d vs %d", i, s, ga[s], gb[s])
			}
		}
	}
}

// TestRunMultiJobRejectsTrace: trace events carry no bracket id, so a
// recorder shared across brackets would conflate their trial IDs. The
// multi-job entry point refuses a traced template, with or without a
// capacity, instead of silently dropping the recorder, and records
// nothing.
func TestRunMultiJobRejectsTrace(t *testing.T) {
	brackets, err := spec.Hyperband(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	e := table2Experiment(t, PolicyRubberBand, 20*time.Minute, 47)
	e.Trace = trace.New()
	if _, err := e.RunMultiJob(brackets, 0); !errors.Is(err, errMultiTrace) {
		t.Errorf("RunMultiJob with Trace: err = %v, want errMultiTrace", err)
	}
	if _, err := e.RunMultiJob(brackets, 8); !errors.Is(err, errMultiTrace) {
		t.Errorf("RunMultiJob(capacity 8) with Trace: err = %v, want errMultiTrace", err)
	}
	if n := e.Trace.Len(); n != 0 {
		t.Errorf("rejected multi-job recorded %d events", n)
	}
}

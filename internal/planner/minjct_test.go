package planner

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/spec"
)

// TestFairStepUp checks neighbours' plain upward step.
func TestFairStepUp(t *testing.T) {
	cases := []struct {
		alloc, trials, max int
		want               int
		ok                 bool
	}{
		{10, 10, 64, 20, true}, // next multiple
		{5, 10, 64, 10, true},  // factor below trials jumps to trials? 6..9 don't divide; 10 is multiple
		{1, 10, 64, 2, true},
		{20, 10, 64, 30, true},
		{60, 10, 64, 0, false}, // next multiple 70 exceeds max
		{3, 4, 64, 4, true},
		{2, 1, 4, 3, true}, // everything divides 1
	}
	for _, c := range cases {
		got, ok := fairStep(t, c.alloc, c.trials, c.max, true)
		if got != c.want || ok != c.ok {
			t.Errorf("step up from (%d,%d) within %d = (%d,%v), want (%d,%v)",
				c.alloc, c.trials, c.max, got, ok, c.want, c.ok)
		}
	}
}

// TestUpNeighbours checks neighbours' upward set with the instance step:
// the plain step, the first allocation on a new instance when it differs,
// and nothing past the cap.
func TestUpNeighbours(t *testing.T) {
	s := spec.Empty().AddStage(1, 10)
	cases := []struct {
		alloc int
		want  []int
	}{
		{13, []int{14, 17}}, // plain step, then the first GPU of a fifth instance
		{12, []int{13}},     // the instance step is the plain step
		{63, []int{64}},     // the instance step would pass the cap
		{64, nil},
	}
	for _, c := range cases {
		var got []int
		for _, cand := range neighbours(sim.NewPlan(c.alloc), s, 4, true, 64) {
			got = append(got, cand.Alloc[0])
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("up from %d = %v, want %v", c.alloc, got, c.want)
		}
	}
}

// TestJCTBenefit checks Equation 1's dual mirror: goal.benefit under the
// JCT goal.
func TestJCTBenefit(t *testing.T) {
	g := goal{minJCT: true, bound: 1000}
	cur := sim.Estimate{JCT: 100, Cost: 10}
	if b := g.benefit(cur, sim.Estimate{JCT: 80, Cost: 14}); math.Abs(b-5) > 1e-12 {
		t.Errorf("benefit = %v, want 5", b)
	}
	if b := g.benefit(cur, sim.Estimate{JCT: 80, Cost: 9}); !math.IsInf(b, 1) {
		t.Errorf("benefit = %v, want +inf", b)
	}
	if b := g.benefit(cur, sim.Estimate{JCT: 120, Cost: 14}); !math.IsInf(b, -1) {
		t.Errorf("benefit = %v, want -inf", b)
	}
}

func TestPlanMinJCTRespectsBudget(t *testing.T) {
	s := spec.MustSHA(32, 2, 64, 2)
	sm := resnetSim(t, s, 5, 31)
	p := &Planner{Sim: sm, Deadline: 1e9, MaxGPUs: 128}
	for _, budget := range []float64{3, 6, 12} {
		res, err := p.PlanMinJCT(budget)
		if err != nil {
			t.Fatalf("budget %v: %v", budget, err)
		}
		if res.Estimate.Cost > budget {
			t.Errorf("budget %v: plan costs %v", budget, res.Estimate.Cost)
		}
	}
}

func TestPlanMinJCTMonotoneInBudget(t *testing.T) {
	// More money can only buy speed: JCT is non-increasing in budget.
	s := spec.MustSHA(32, 2, 64, 2)
	sm := resnetSim(t, s, 5, 32)
	p := &Planner{Sim: sm, Deadline: 1e9, MaxGPUs: 128}
	prev := math.Inf(1)
	for _, budget := range []float64{3, 5, 8, 15} {
		res, err := p.PlanMinJCT(budget)
		if err != nil {
			t.Fatalf("budget %v: %v", budget, err)
		}
		// 3% tolerance for Monte-Carlo noise between separate searches.
		if res.Estimate.JCT > prev*1.03 {
			t.Errorf("budget %v: JCT %v above smaller-budget JCT %v", budget, res.Estimate.JCT, prev)
		}
		if res.Estimate.JCT < prev {
			prev = res.Estimate.JCT
		}
	}
}

func TestPlanMinJCTBeatsStaticWarmStart(t *testing.T) {
	// The ascent must never return something slower than the best static
	// allocation within budget — that allocation is its warm start.
	s := spec.MustSHA(64, 4, 508, 2)
	sm := resnetSim(t, s, 5, 33)
	p := &Planner{Sim: sm, Deadline: 1e9, MaxGPUs: 128}
	budget := 8.0
	res, err := p.PlanMinJCT(budget)
	if err != nil {
		t.Fatal(err)
	}
	// Recompute the static warm start independently.
	bestStatic := math.Inf(1)
	for g := 1; g <= 128; g++ {
		est, err := sm.Estimate(sim.Uniform(g, s.NumStages()))
		if err != nil {
			t.Fatal(err)
		}
		if est.Cost <= budget && est.JCT < bestStatic {
			bestStatic = est.JCT
		}
	}
	if res.Estimate.JCT > bestStatic*1.03 {
		t.Errorf("min-JCT plan %v (JCT %v) slower than best static %v",
			res.Plan, res.Estimate.JCT, bestStatic)
	}
}

func TestPlanMinJCTInfeasible(t *testing.T) {
	s := spec.MustSHA(16, 4, 32, 2)
	p := &Planner{Sim: resnetSim(t, s, 3, 34), Deadline: 1e9, MaxGPUs: 32}
	if _, err := p.PlanMinJCT(0.0001); err != ErrInfeasible {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if _, err := p.PlanMinJCT(-1); err != ErrInfeasible {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	// A NaN budget is an input error: it must not pass as unbounded.
	if _, err := p.PlanMinJCT(math.NaN()); err == nil || errors.Is(err, ErrInfeasible) {
		t.Fatalf("NaN budget: err = %v, want an input error", err)
	}
	// +Inf is a valid, unbounded budget.
	if _, err := p.PlanMinJCT(math.Inf(1)); err != nil {
		t.Fatalf("+Inf budget: %v", err)
	}
}

// Property: neighbours' plain upward step is fair, strictly larger, and
// within the cap when it exists.
func TestQuickFairStepUp(t *testing.T) {
	f := func(allocRaw, trialsRaw uint8) bool {
		alloc := int(allocRaw%100) + 1
		trials := int(trialsRaw%32) + 1
		max := 128
		v, ok := fairStep(t, alloc, trials, max, true)
		if !ok {
			// No fair value in (alloc, max]: verify by scan.
			for x := alloc + 1; x <= max; x++ {
				if x%trials == 0 || trials%x == 0 {
					return false
				}
			}
			return true
		}
		return v > alloc && v <= max && (v%trials == 0 || trials%v == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

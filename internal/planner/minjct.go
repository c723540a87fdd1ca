package planner

import (
	"fmt"
	"math"
)

// PlanMinJCT solves the dual problem the paper notes its techniques
// extend to (§2, footnote 1): minimize job completion time subject to a
// cost budget in dollars. A +Inf budget is unbounded.
//
// The search is Algorithm 2 under the dual goal: the warm start is the
// JCT-optimal static allocation whose predicted cost fits the budget,
// and the greedy loop steps per-stage allocations *up* — choosing, each
// step, the candidate with the largest JCT reduction per added dollar —
// until the budget is exhausted or no candidate improves JCT by at least
// a second.
func (p *Planner) PlanMinJCT(budget float64) (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	if math.IsNaN(budget) {
		return Result{}, fmt.Errorf("planner: NaN budget")
	}
	if budget <= 0 {
		return Result{}, ErrInfeasible
	}
	scr := p.newScreen()
	defer scr.release(p)
	g := goal{minJCT: true, bound: budget, minGain: 1}
	warm, err := p.bestUniform(scr, g, nil)
	if err != nil {
		return Result{}, err
	}
	cur, err := p.descend(scr, g, warm)
	if err != nil {
		return Result{}, err
	}
	if cur.Estimate.JCT < warm.Estimate.JCT {
		return cur, nil
	}
	return warm, nil
}

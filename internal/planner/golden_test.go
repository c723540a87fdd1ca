// Golden planner outcomes: every policy's exact result — plan, estimate
// bits, search-work counters, or infeasibility — on the paper job and a
// generated scenario corpus, under every estimator mode. Any change to
// the search that moves one of these is a behaviour change, not a
// refactor. Regenerate with `go test ./internal/planner -run
// TestGoldenPlannerOutcomes -update` only when a change is meant to move
// them.
package planner_test

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cloud"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_outcomes.txt")

const goldenFile = "golden_outcomes.txt"

var goldenEstimators = []struct {
	name string
	mode sim.EstimatorMode
}{
	{"segment", sim.EstimatorSegment},
	{"full", sim.EstimatorFull},
	{"analytic", sim.EstimatorAnalytic},
}

// goldenCase builds a fresh planner for one corpus entry; every policy
// run gets its own, so the work counters cover that run alone.
type goldenCase struct {
	name  string
	build func(t *testing.T, est sim.EstimatorMode) *planner.Planner
}

// paperGoldenCases is the paper's Table 2 job: SHA(32,1,50,3) on
// ResNet-101 with a 128-GPU cap at the 20, 30 and 40 minute deadlines.
func paperGoldenCases() []goldenCase {
	var out []goldenCase
	for _, minutes := range []int{20, 30, 40} {
		deadline := float64(minutes * 60)
		out = append(out, goldenCase{
			name: fmt.Sprintf("paper-%dmin", minutes),
			build: func(t *testing.T, est sim.EstimatorMode) *planner.Planner {
				t.Helper()
				m := model.ResNet101()
				cp := sim.DefaultCloudProfile()
				cp.DatasetGB = m.Dataset.SizeGB
				cp.Overheads = cloud.Overheads{
					QueueDelay:  stats.Deterministic{Value: 5},
					InitLatency: stats.Deterministic{Value: 15},
				}
				prof := sim.ModelTrainProfile{Model: m, Batch: m.BaseBatch, GPUsPerNode: cp.Instance.GPUs}
				sm, err := sim.New(spec.MustSHA(32, 1, 50, 3), prof, cp, 5, stats.NewRNG(1),
					sim.WithWorkers(1), sim.WithEstimator(est))
				if err != nil {
					t.Fatalf("simulator: %v", err)
				}
				return &planner.Planner{Sim: sm, Deadline: deadline, MaxGPUs: 128, Workers: 1}
			},
		})
	}
	return out
}

// formatOutcome renders one policy run as a golden line.
func formatOutcome(res planner.Result, err error, p *planner.Planner) string {
	switch {
	case errors.Is(err, planner.ErrInfeasible):
		return fmt.Sprintf("infeasible calls=%d pruned=%d", p.EstimateCalls(), p.PrunedCandidates())
	case err != nil:
		return "error " + err.Error()
	}
	return fmt.Sprintf("plan=%v jct=%016x cost=%016x calls=%d pruned=%d", res.Plan,
		math.Float64bits(res.Estimate.JCT), math.Float64bits(res.Estimate.Cost),
		p.EstimateCalls(), p.PrunedCandidates())
}

// TestGoldenPlannerOutcomes pins PlanStatic, PlanNaiveElastic,
// PlanElastic and PlanMinJCT (budget 1.5 × the elastic cost) on the paper
// job and the first 8 feasible scenarios of harness seed 61, each under
// the segment, full and analytic estimators.
func TestGoldenPlannerOutcomes(t *testing.T) {
	cases := paperGoldenCases()
	for _, sc := range metamorphicScenarios(t, 61, 8) {
		sc := sc
		cases = append(cases, goldenCase{
			name: fmt.Sprintf("gen61-%d", sc.Index),
			build: func(t *testing.T, est sim.EstimatorMode) *planner.Planner {
				sc := sc
				sc.Estimator = est
				p, _ := newPlanner(t, sc, sc.Profile, 61, 0.01)
				return p
			},
		})
	}

	var buf bytes.Buffer
	for _, c := range cases {
		for _, est := range goldenEstimators {
			prefix := c.name + " " + est.name
			// run records one policy's outcome on a fresh planner and
			// returns its result, or nil when it returned an error.
			run := func(policy string, plan func(*planner.Planner) (planner.Result, error)) *planner.Result {
				p := c.build(t, est.mode)
				res, err := plan(p)
				buf.WriteString(fmt.Sprintf("%s %s: %s\n", prefix, policy, formatOutcome(res, err, p)))
				if err != nil {
					return nil
				}
				return &res
			}
			run("static", (*planner.Planner).PlanStatic)
			run("naive", (*planner.Planner).PlanNaiveElastic)
			el := run("elastic", (*planner.Planner).PlanElastic)
			if el == nil {
				buf.WriteString(prefix + " minjct: skipped (no elastic plan)\n")
				continue
			}
			budget := 1.5 * el.Estimate.Cost
			run("minjct", func(p *planner.Planner) (planner.Result, error) { return p.PlanMinJCT(budget) })
		}
	}

	path := filepath.Join("testdata", goldenFile)
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/planner -run TestGoldenPlannerOutcomes -update` to generate)", err)
	}
	if bytes.Equal(want, buf.Bytes()) {
		return
	}
	gotLines := bytes.Split(buf.Bytes(), []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w []byte
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if !bytes.Equal(g, w) {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}

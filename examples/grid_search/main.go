// grid_search reproduces the paper's Figure 2 background: a basic
// hyperparameter grid search where every configuration trains to its full
// budget — and contrasts it with Successive Halving on the same grid
// under RubberBand, which reaches an equally good configuration at a
// fraction of the cost by pruning hopeless candidates early.
//
//	go run ./examples/grid_search
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/searchspace"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/vclock"
)

func main() {
	m := model.ResNet101()
	space := searchspace.MustNew(
		searchspace.LogUniform{Key: "lr", Lo: 1e-3, Hi: 1},
		searchspace.Uniform{Key: "momentum", Lo: 0.85, Hi: 0.95},
		searchspace.LogUniform{Key: "weight_decay", Lo: 1e-5, Hi: 1e-3},
	)
	grid, err := space.Grid(3, 0) // 27 configurations
	if err != nil {
		log.Fatal(err)
	}
	const fullBudget = 27 // epochs per configuration at convergence

	// --- Grid search: every config trains the full budget, one stage,
	// no pruning. Run it on the simulated cloud with a static cluster.
	clock := vclock.New()
	rng := stats.NewRNG(7)
	cp := sim.DefaultCloudProfile()
	cp.Overheads = cloud.DefaultOverheads()
	cp.DatasetGB = m.Dataset.SizeGB
	provider, mgr, err := pipeline.NewSubstrate(clock, rng.Split(), cp, cloud.FaultModel{})
	if err != nil {
		log.Fatal(err)
	}
	gridSpec := spec.Empty().AddStage(len(grid), fullBudget)
	gridRes, err := executor.Run(executor.Config{
		Spec:     gridSpec,
		Plan:     sim.NewPlan(len(grid)), // one GPU per config
		Model:    m,
		Batch:    m.BaseBatch,
		Configs:  grid,
		Provider: provider,
		Cluster:  mgr,
		Clock:    clock,
		RNG:      rng,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("grid search:  %2d configs x %d epochs  cost $%6.2f  JCT %5.0fs  best %.1f%%\n",
		len(grid), fullBudget, gridRes.Cost, gridRes.JCT, gridRes.BestAccuracy*100)

	// --- Successive Halving over the same search space, planned by
	// RubberBand against the grid search's realized JCT as the deadline.
	exp := &core.Experiment{
		Model:          m,
		Space:          space,
		Spec:           spec.MustSHA(27, 1, fullBudget, 3),
		Deadline:       time.Duration(gridRes.JCT * float64(time.Second)),
		Policy:         core.PolicyRubberBand,
		Seed:           7,
		RestoreSeconds: 2,
	}
	shaRes, err := exp.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SHA + RubberBand: 27 -> 9 -> 3 -> 1   cost $%6.2f  JCT %5.0fs  best %.1f%%\n",
		shaRes.Actual.Cost, shaRes.Actual.JCT, shaRes.Actual.BestAccuracy*100)
	fmt.Printf("\nearly stopping + elastic allocation cut cost %.1fx — and random sampling\n", gridRes.Cost/shaRes.Actual.Cost)
	fmt.Println("covered the space better than the coarse 3-point-per-axis grid did")
}

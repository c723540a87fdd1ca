package experiments

import (
	"fmt"
	"time"

	"repro/internal/asha"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/searchspace"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/vclock"
)

// ASHAResult compares RubberBand against the asynchronous prior-work
// baseline (§7): ASHA on a fixed cluster keeps sampling new
// configurations whenever workers free up, which the paper (citing
// HyperSched) argues is an ineffective use of resources under a time
// constraint. Expected shape: at an equal deadline, ASHA spends at least
// as much (its cluster never shrinks) while its best *fully trained*
// configuration is no better; most of its sampled configurations die
// partially trained.
type ASHAResult struct {
	Rows []ASHARow
}

// ASHARow is one scheduler's outcome.
type ASHARow struct {
	Scheduler    string
	Cost         Stat
	BestAccuracy Stat
	// SampledConfigs is the mean number of configurations evaluated (at
	// any depth); FinishedConfigs is the mean number trained to the full
	// budget R.
	SampledConfigs  float64
	FinishedConfigs float64
}

// ASHA runs the comparison.
func ASHA(cfg Config) (*ASHAResult, error) {
	cfg = cfg.withDefaults()
	const (
		r, maxR, eta = 1, 50, 3
		nTrials      = 32
		workers      = 8
	)
	deadline := 20 * time.Minute
	shaSpec := spec.MustSHA(nTrials, r, maxR, eta)
	if cfg.Fast {
		shaSpec = spec.MustSHA(8, 1, 12, 3)
	}

	var rbCost, rbAcc, ashaCost, ashaAcc, sampled, finished []float64
	for s := 0; s < cfg.Seeds; s++ {
		seed := cfg.Seed + 500 + uint64(s)*1000

		// RubberBand.
		cp := sim.DefaultCloudProfile()
		cp.DatasetGB = model.CIFAR10.SizeGB
		cp.Overheads = cloud.Overheads{
			QueueDelay:  stats.Deterministic{Value: 5},
			InitLatency: stats.Deterministic{Value: 15},
		}
		exp := &core.Experiment{
			Model:          model.ResNet101(),
			Space:          searchspace.DefaultVisionSpace(),
			Spec:           shaSpec,
			Cloud:          cp,
			Deadline:       deadline,
			Policy:         core.PolicyRubberBand,
			Seed:           seed,
			Samples:        cfg.Samples,
			MaxGPUs:        128,
			RestoreSeconds: 2,
		}
		rbRes, err := exp.Run()
		if err != nil {
			return nil, fmt.Errorf("asha experiment (rubberband): %w", err)
		}
		rbCost = append(rbCost, rbRes.Actual.Cost)
		rbAcc = append(rbAcc, rbRes.Actual.BestAccuracy)

		// ASHA on the same ladder and substrate.
		clock := vclock.New()
		rng := stats.NewRNG(seed + 2)
		provider, mgr, err := pipeline.NewSubstrate(clock, rng.Split(), cp, cloud.FaultModel{})
		if err != nil {
			return nil, err
		}
		maxIters := shaSpec.MaxIters()
		ashaRes, err := asha.Run(asha.Config{
			Model:    model.ResNet101(),
			Batch:    model.ResNet101().BaseBatch,
			Space:    searchspace.DefaultVisionSpace(),
			MinIters: r, MaxIters: maxIters, Eta: eta,
			Workers:  workers,
			Deadline: deadline.Seconds(),
			Provider: provider,
			Cluster:  mgr,
			Clock:    clock,
			RNG:      rng,
		})
		if err != nil {
			return nil, fmt.Errorf("asha experiment (asha): %w", err)
		}
		ashaCost = append(ashaCost, ashaRes.Cost)
		ashaAcc = append(ashaAcc, ashaRes.BestAccuracy)
		sampled = append(sampled, float64(ashaRes.Sampled))
		finished = append(finished, float64(ashaRes.Finished))
	}

	res := &ASHAResult{}
	rb := ASHARow{Scheduler: "RubberBand", SampledConfigs: float64(shaSpec.TotalTrials()), FinishedConfigs: 1}
	rb.Cost.Mean, rb.Cost.Std = stats.MeanStd(rbCost)
	rb.BestAccuracy.Mean, rb.BestAccuracy.Std = stats.MeanStd(rbAcc)
	as := ASHARow{Scheduler: "ASHA (fixed cluster)"}
	as.Cost.Mean, as.Cost.Std = stats.MeanStd(ashaCost)
	as.BestAccuracy.Mean, as.BestAccuracy.Std = stats.MeanStd(ashaAcc)
	as.SampledConfigs, _ = stats.MeanStd(sampled)
	as.FinishedConfigs, _ = stats.MeanStd(finished)
	res.Rows = []ASHARow{rb, as}
	return res, nil
}

// String renders the comparison.
func (r *ASHAResult) render() *table {
	t := &table{
		title:  "ASHA (prior work, fixed cluster) vs RubberBand at an equal deadline",
		header: []string{"scheduler", "cost ($)", "best acc", "configs sampled", "fully trained"},
	}
	for _, row := range r.Rows {
		t.add(row.Scheduler,
			meanStd(row.Cost.Mean, row.Cost.Std),
			meanStd(row.BestAccuracy.Mean*100, row.BestAccuracy.Std*100),
			fmt.Sprintf("%.0f", row.SampledConfigs),
			fmt.Sprintf("%.0f", row.FinishedConfigs))
	}
	return t
}

// SpotResult sweeps spot-market preemption intensity (the paper's
// deferred future work): RubberBand on ~3x cheaper preemptible capacity,
// recovering from reclamations via checkpoints. Expected shape: spot
// dominates on cost while preemptions are rare; as reclamation
// intensifies, replayed work and restore latency erode the discount and
// stretch JCT.
type SpotResult struct {
	Rows []SpotRow
}

// SpotRow is one preemption intensity.
type SpotRow struct {
	Label       string
	Cost        Stat
	JCT         Stat
	Preemptions float64 // mean per run
}

// Spot runs the sweep.
func Spot(cfg Config) (*SpotResult, error) {
	cfg = cfg.withDefaults()
	shaSpec := spec.MustSHA(16, 1, 30, 3)
	if cfg.Fast {
		shaSpec = spec.MustSHA(8, 1, 9, 3)
	}
	type point struct {
		label   string
		market  cloud.Market
		preempt float64
	}
	points := []point{
		{"on-demand", cloud.OnDemand, 0},
		{"spot, stable", cloud.Spot, 0},
		{"spot, preempt 20m", cloud.Spot, 1200},
		{"spot, preempt 10m", cloud.Spot, 600},
		{"spot, preempt 5m", cloud.Spot, 300},
	}
	if cfg.Fast {
		points = points[:3]
	}
	res := &SpotResult{}
	for _, pt := range points {
		var costs, jcts, preempts []float64
		for s := 0; s < cfg.Seeds; s++ {
			cp := sim.DefaultCloudProfile()
			cp.Pricing.Market = pt.market
			cp.DatasetGB = model.CIFAR10.SizeGB
			cp.Overheads = cloud.Overheads{
				QueueDelay:  stats.Deterministic{Value: 5},
				InitLatency: stats.Deterministic{Value: 15},
			}
			exp := &core.Experiment{
				Model:          model.ResNet101(),
				Space:          searchspace.DefaultVisionSpace(),
				Spec:           shaSpec,
				Cloud:          cp,
				Deadline:       25 * time.Minute,
				Policy:         core.PolicyRubberBand,
				Seed:           cfg.Seed + 900 + uint64(s)*1000,
				Samples:        cfg.Samples,
				RestoreSeconds: 5,
				Faults:         cloud.FaultModel{PreemptionMeanSeconds: pt.preempt},
			}
			out, err := exp.Run()
			if err != nil {
				return nil, fmt.Errorf("spot %s: %w", pt.label, err)
			}
			costs = append(costs, out.Actual.Cost)
			jcts = append(jcts, out.Actual.JCT)
			preempts = append(preempts, float64(out.Actual.Preemptions))
		}
		row := SpotRow{Label: pt.label}
		row.Cost.Mean, row.Cost.Std = stats.MeanStd(costs)
		row.JCT.Mean, row.JCT.Std = stats.MeanStd(jcts)
		row.Preemptions, _ = stats.MeanStd(preempts)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the sweep.
func (r *SpotResult) render() *table {
	t := &table{
		title:  "Spot-market extension: RubberBand on preemptible capacity",
		header: []string{"capacity", "cost ($)", "JCT (s)", "preemptions/run"},
	}
	for _, row := range r.Rows {
		t.add(row.Label,
			meanStd(row.Cost.Mean, row.Cost.Std),
			meanStd(row.JCT.Mean, row.JCT.Std),
			fmt.Sprintf("%.1f", row.Preemptions))
	}
	return t
}

// String renders the result as an aligned text table.
func (r *ASHAResult) String() string { return r.render().String() }

// CSV renders the result as comma-separated values.
func (r *ASHAResult) CSV() string { return r.render().CSV() }

// String renders the result as an aligned text table.
func (r *SpotResult) String() string { return r.render().String() }

// CSV renders the result as comma-separated values.
func (r *SpotResult) CSV() string { return r.render().CSV() }

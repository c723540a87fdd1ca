package sim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cloud"
	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/stats"
)

// opaqueDist is a latency the dag.Latency encoding does not know and
// that has no variance: sampling dispatches through the interface and
// the moment pass must refuse it.
type opaqueDist struct{ d stats.Normal }

func (o opaqueDist) Sample(r *stats.RNG) float64 { return o.d.Sample(r) }
func (o opaqueDist) Mean() float64               { return o.d.Mean() }
func (o opaqueDist) String() string              { return "opaque(" + o.d.String() + ")" }

// opaqueVarDist is an unknown latency that does report its variance.
type opaqueVarDist struct{ opaqueDist }

func (o opaqueVarDist) Var() float64 { return o.d.Var() }

// latencyFamilies names the latency shapes the closed-form tests put on
// every node type (see familyDist).
var latencyFamilies = []string{
	"deterministic", "normal", "lognormal", "uniform", "uniform-below-zero", "exponential",
	"pareto-finite-variance", "pareto-infinite-variance", "repeat", "opaque", "opaque-varer",
}

// familyDist returns latency family k of latencyFamilies with the given
// mean: every built-in Latency opcode, heavy tails with and without
// finite variance, a lower bound below zero (no dominance proof),
// Repeat, and opaque distributions with and without stats.Varer.
func familyDist(k int, m float64) stats.Dist {
	switch latencyFamilies[k] {
	case "deterministic":
		return stats.Deterministic{Value: m}
	case "normal":
		return stats.Normal{Mu: m, Sigma: m / 5}
	case "lognormal":
		return stats.LogNormal{Mu: math.Log(m), Sigma: 0.3}
	case "uniform":
		return stats.Uniform{Lo: m / 2, Hi: 3 * m / 2}
	case "uniform-below-zero":
		return stats.Uniform{Lo: -m / 2, Hi: 5 * m / 2}
	case "exponential":
		return stats.Exponential{MeanValue: m}
	case "pareto-finite-variance":
		return stats.Pareto{Scale: 0.6 * m, Alpha: 2.5}
	case "pareto-infinite-variance":
		return stats.Pareto{Scale: m / 3, Alpha: 1.5}
	case "repeat":
		return stats.Repeat{D: stats.Exponential{MeanValue: m / 4}, N: 4}
	case "opaque":
		return opaqueDist{stats.Normal{Mu: m, Sigma: m / 5}}
	default:
		return opaqueVarDist{opaqueDist{stats.Normal{Mu: m, Sigma: m / 5}}}
	}
}

// familyProfile is a training profile of one latency family: one
// iteration at g GPUs takes familyDist(family, base/g).
type familyProfile struct {
	family int
	base   float64
}

func (p familyProfile) IterDist(gpus int) stats.Dist {
	return familyDist(p.family, p.base/float64(gpus))
}

// checkGrid checks every tuple of sm's job — each stage, each allocation
// 1..maxGPUs and each previous cluster size 0..the largest the job ever
// needs — against the stage's compiled program, and returns the count.
func checkGrid(t *testing.T, name string, sm *Simulator, maxGPUs int) int {
	t.Helper()
	gpn := sm.cloud.Instance.GPUs
	maxInst := 0
	for i := 0; i < sm.spec.NumStages(); i++ {
		for a := 1; a <= maxGPUs; a++ {
			maxInst = max(maxInst, sm.buildSegment(segKey{stage: i, alloc: a}).instances)
		}
	}
	n := 0
	for i := 0; i < sm.spec.NumStages(); i++ {
		for a := 1; a <= maxGPUs; a++ {
			for prev := 0; prev <= maxInst; prev++ {
				key := segKey{stage: i, alloc: a, prev: prev}
				if err := sm.checkKey(key); err != nil {
					t.Fatalf("%s (%d GPUs per node): segment %+v: %v", name, gpn, key, err)
				}
				n++
			}
		}
	}
	return n
}

// TestSegmentClosedFormGrid: every stage × allocation × previous cluster
// size of a job samples and moment-propagates bit for bit as its
// compiled stage program — on the paper job under deterministic and
// default overheads, and on a small job whose stages cover one trial,
// fan-outs and chained slots under every latency family on the SCALE,
// INIT and TRAIN nodes alike.
func TestSegmentClosedFormGrid(t *testing.T) {
	total := 0
	m := model.ResNet101()
	for name, ov := range map[string]cloud.Overheads{
		"paper job, deterministic overheads": {QueueDelay: stats.Deterministic{Value: 5}, InitLatency: stats.Deterministic{Value: 15}},
		"paper job, default overheads":       cloud.DefaultOverheads(),
	} {
		cp := DefaultCloudProfile()
		cp.Overheads = ov
		prof := ModelTrainProfile{Model: m, Batch: m.BaseBatch, GPUsPerNode: cp.Instance.GPUs}
		sm, err := New(spec.MustSHA(32, 1, 50, 3), prof, cp, 0, stats.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		total += checkGrid(t, name, sm, 128)
	}
	small, err := spec.New(spec.Stage{Trials: 13, Iters: 2}, spec.Stage{Trials: 6, Iters: 1}, spec.Stage{Trials: 2, Iters: 3}, spec.Stage{Trials: 1, Iters: 2})
	if err != nil {
		t.Fatal(err)
	}
	for k, name := range latencyFamilies {
		cp := DefaultCloudProfile()
		cp.Overheads = cloud.Overheads{QueueDelay: familyDist(k, 5), InitLatency: familyDist(k, 15)}
		sm, err := New(small, familyProfile{family: k, base: 40}, cp, 0, stats.NewRNG(2))
		if err != nil {
			t.Fatal(err)
		}
		total += checkGrid(t, name, sm, 32)
	}
	t.Logf("%d segments checked", total)
}

// fuzzParam maps a fuzzed float into a finite latency parameter in
// (-100, 100).
func fuzzParam(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 1
	}
	return math.Mod(x, 100)
}

// FuzzSegmentClosedForm: for any one-stage job shape — trial count,
// allocation, previous cluster size, GPUs per node, iterations — and any
// latency family and parameters on each node type, the closed-form
// segment matches its compiled stage program bit for bit.
func FuzzSegmentClosedForm(f *testing.F) {
	f.Add(uint8(13), uint8(5), uint8(1), uint8(4), uint8(2), uint8(0), uint8(1), uint8(2), 5.0, 15.0)
	f.Add(uint8(32), uint8(64), uint8(0), uint8(4), uint8(1), uint8(1), uint8(5), uint8(1), 5.0, 15.0)
	f.Add(uint8(7), uint8(1), uint8(0), uint8(1), uint8(3), uint8(4), uint8(4), uint8(4), 2.0, 3.0)
	f.Add(uint8(1), uint8(9), uint8(0), uint8(8), uint8(1), uint8(7), uint8(8), uint8(9), 1.0, 50.0)
	f.Add(uint8(20), uint8(3), uint8(2), uint8(2), uint8(2), uint8(10), uint8(6), uint8(3), -0.0, 7.5)
	f.Fuzz(func(t *testing.T, trials, alloc, prev, gpn, iters, scaleFam, initFam, trainFam uint8, a, b float64) {
		a, b = fuzzParam(a), fuzzParam(b)
		fam := func(k uint8) int { return int(k) % len(latencyFamilies) }
		sp, err := spec.New(spec.Stage{Trials: 1 + int(trials%48), Iters: 1 + int(iters%4)})
		if err != nil {
			t.Fatal(err)
		}
		cp := DefaultCloudProfile()
		cp.Instance.GPUs = 1 + int(gpn%16)
		cp.Overheads = cloud.Overheads{QueueDelay: familyDist(fam(scaleFam), a), InitLatency: familyDist(fam(initFam), b)}
		sm, err := New(sp, familyProfile{family: fam(trainFam), base: a + b}, cp, 0, stats.NewRNG(3))
		if err != nil {
			t.Fatal(err)
		}
		key := segKey{alloc: 1 + int(alloc%96), prev: int(prev % 48)}
		if err := sm.checkKey(key); err != nil {
			t.Fatal(fmt.Errorf("segment %+v, %d GPUs per node: %w", key, cp.Instance.GPUs, err))
		}
	})
}

package main

import (
	"fmt"
	"strconv"

	"repro/internal/harness"
	"repro/internal/serve"
)

// Correctness gates. Each runs outside the timed region; every item is
// one attempt, and a failing item fails the run.

// goldenRow pins one paper-sha result: the plan, the prediction and the
// realised outcome, floats in shortest round-trip form.
type goldenRow struct {
	plan              string
	predJCT, predCost string
	realJCT, realCost string
}

// paperGoldenSeed is the default workload seed the golden rows pin.
const paperGoldenSeed = 1

// paperGolden holds experiments 0-2 (deadlines 20, 30, 40 min) of
// paper-sha under seed 1, as the code computed them when the benchmark
// was added.
var paperGolden = []goldenRow{
	{"(4, 24, 12, 4)", "853.1774436086756", "4.506816541293295", "860.7892648288423", "4.565978333637197"},
	{"(4, 4, 4, 4)", "1335.2975786702825", "4.523011767478962", "1334.5736464806205", "4.52055039803411"},
	{"(4, 4, 4, 4)", "1335.977171044414", "4.525322381551008", "1335.1956048151903", "4.522665056371647"},
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// paperRows computes the first n golden rows for seed.
func paperRows(seed uint64, n int) ([]goldenRow, error) {
	rows := make([]goldenRow, n)
	for i := range rows {
		res, err := paperExperiment(seed, i).Run()
		if err != nil {
			return nil, fmt.Errorf("experiment %d: %w", i, err)
		}
		rows[i] = goldenRow{
			plan:    res.Plan.String(),
			predJCT: fmtFloat(res.Predicted.JCT), predCost: fmtFloat(res.Predicted.Cost),
			realJCT: fmtFloat(res.Actual.JCT), realCost: fmtFloat(res.Actual.Cost),
		}
	}
	return rows, nil
}

// checkPaperGolden recomputes the golden experiments and compares them
// with want.
func checkPaperGolden(want []goldenRow) error {
	got, err := paperRows(paperGoldenSeed, len(want))
	if err != nil {
		return err
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("paper-sha golden %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

func gatePaperGolden(rep *report) { rep.gate(checkPaperGolden(paperGolden)) }

// The chaos-mix digest gate: the first chaosGateN scenarios of seed
// chaosGateSeed fold to the batch digest rbfuzz pins.
const (
	chaosGateSeed   = 1
	chaosGateN      = 128
	chaosGateDigest = "71a7aec90ce75eac"
)

// checkChaosDigest runs scenarios 0..n-1 of seed, checks every oracle on
// each, and compares the folded batch digest with want.
func checkChaosDigest(seed uint64, n int, want string) error {
	digests := make([]harness.Digest, n)
	for i := range digests {
		a, err := harness.RunScenario(harness.Generate(seed, i))
		if err != nil {
			return fmt.Errorf("scenario %d: %w", i, err)
		}
		if vs := harness.CheckAll(a, harness.DefaultOracles()); len(vs) > 0 {
			return fmt.Errorf("scenario %d: %s", i, vs[0])
		}
		digests[i] = harness.ComputeDigest(a)
	}
	if got := serve.DigestString(harness.CombineDigests(digests)); got != want {
		return fmt.Errorf("chaos batch digest %s, want %s", got, want)
	}
	return nil
}

func gateChaosDigest(rep *report) {
	rep.gate(checkChaosDigest(chaosGateSeed, chaosGateN, chaosGateDigest))
}

// checkReplay re-derives a completed serve experiment's digest offline
// from its replay tuple.
func checkReplay(t serve.ReplayTuple) error {
	if _, err := serve.VerifyReplay(t); err != nil {
		return fmt.Errorf("replay %s: %w", t.ID, err)
	}
	return nil
}

// checkFleet runs the cross-experiment fairness oracle on a server's
// arbiter log.
func checkFleet(log []harness.FleetEvent, capacity, admitBound int) error {
	if vs := harness.CheckFleetInvariants(log, capacity, admitBound); len(vs) > 0 {
		return fmt.Errorf("fleet log: %d violation(s), first: %s", len(vs), vs[0])
	}
	return nil
}

package harness

import "testing"

// FuzzEndToEnd lets the native fuzzer drive the chaos harness's scenario
// space directly: any (seed, index) pair generates a scenario, runs the
// full pipeline on the virtual clock, and must satisfy every invariant
// oracle plus bit-identical replay. The checked-in corpus under
// testdata/fuzz pins the scenarios that previously exposed bugs (the
// scatter double-booking regression among them).
func FuzzEndToEnd(f *testing.F) {
	f.Add(uint64(1), uint64(0))
	f.Add(uint64(1), uint64(21))  // scatter + provisioning failures
	f.Add(uint64(2), uint64(52))  // scatter double-booking regression
	f.Add(uint64(3), uint64(195)) // scatter + spot preemptions
	f.Add(uint64(42), uint64(13))
	f.Add(uint64(4), uint64(2))   // drift-triggered replan, tail adopted
	f.Add(uint64(4), uint64(17))  // drift classified infeasible, replan declines
	f.Add(uint64(4), uint64(143)) // preemption-triggered replan
	f.Fuzz(func(t *testing.T, seed, rawIndex uint64) {
		// Indices wrap at 2^16, wide enough for the long-run batch
		// reproducers the corpus pins (stale-node-view-*, stage-replay-livelock-*).
		index := int(rawIndex % (1 << 16))
		sc := Generate(seed, index)
		a, err := RunScenario(sc)
		if err != nil {
			t.Fatalf("pipeline aborted: %v\n  %s", err, sc)
		}
		for _, v := range CheckAll(a, DefaultOracles()) {
			t.Errorf("%s\n  %s", v, sc)
		}
		b, err := RunScenario(sc)
		if err != nil {
			t.Fatalf("replay aborted: %v\n  %s", err, sc)
		}
		if da, db := ComputeDigest(a), ComputeDigest(b); da != db {
			t.Fatalf("replay digest mismatch: %016x vs %016x\n  %s", uint64(da), uint64(db), sc)
		}
	})
}

package harness

import (
	"testing"

	"repro/internal/journal"
	"repro/internal/pipeline"
	"repro/internal/vclock"
)

// The differential kernel suite: every scenario in the harness corpus
// runs under both simulation kernels — the production timer wheel
// (vclock.New) and the reference binary heap (vclock.NewHeap) — and
// must produce bit-identical artifacts. This is what makes the kernel
// rewrite safe to do aggressively: any ordering divergence the wheel's
// bucketing, cascading, or overflow handling could introduce flips a
// digest here.

// kernelCorpus returns the full checked-in harness corpus: every
// (seed, index) pinned by the end-to-end fuzz corpus, including the
// scatter double-booking and replan-recovery regressions.
func kernelCorpus() []Scenario {
	pairs := [][2]uint64{
		{1, 0},
		{1, 21},  // scatter + provisioning failures
		{2, 52},  // scatter double-booking regression
		{3, 195}, // scatter + spot preemptions
		{42, 13},
		{4, 2},   // drift-triggered replan, tail adopted
		{4, 17},  // drift classified infeasible, replan declines
		{4, 143}, // preemption-triggered replan
	}
	out := make([]Scenario, 0, len(pairs))
	for _, p := range pairs {
		out = append(out, Generate(p[0], int(p[1])))
	}
	return out
}

// TestKernelEquivalenceOnCorpus runs the full corpus under both kernels
// and requires bit-identical replay digests — the complete observable
// behaviour of each run: event trace, result, billing ledger, replan
// decisions.
func TestKernelEquivalenceOnCorpus(t *testing.T) {
	for _, sc := range kernelCorpus() {
		wheel, err := pipeline.Run(sc, RunConfig{NewClock: vclock.New})
		if err != nil {
			t.Fatalf("wheel kernel: %v\n  %s", err, sc)
		}
		heap, err := pipeline.Run(sc, RunConfig{NewClock: vclock.NewHeap})
		if err != nil {
			t.Fatalf("heap kernel: %v\n  %s", err, sc)
		}
		dw, dh := ComputeDigest(wheel), ComputeDigest(heap)
		if dw != dh {
			t.Errorf("kernel digest divergence on seed=%d index=%d: wheel %016x, heap %016x",
				sc.BatchSeed, sc.Index, uint64(dw), uint64(dh))
		}
		if wheel.Steps != heap.Steps {
			t.Errorf("kernel step-count divergence on seed=%d index=%d: wheel %d, heap %d",
				sc.BatchSeed, sc.Index, wheel.Steps, heap.Steps)
		}
	}
}

// TestKernelEquivalenceSweep samples beyond the pinned corpus: a
// contiguous block of generated scenarios per seed, both kernels,
// digests equal. Catches divergences the regression corpus does not
// pin.
func TestKernelEquivalenceSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep beyond the pinned corpus")
	}
	for _, seed := range []uint64{7, 11} {
		for idx := 0; idx < 8; idx++ {
			sc := Generate(seed, idx)
			wheel, err := pipeline.Run(sc, RunConfig{NewClock: vclock.New})
			if err != nil {
				t.Fatalf("wheel kernel: %v\n  %s", err, sc)
			}
			heap, err := pipeline.Run(sc, RunConfig{NewClock: vclock.NewHeap})
			if err != nil {
				t.Fatalf("heap kernel: %v\n  %s", err, sc)
			}
			if dw, dh := ComputeDigest(wheel), ComputeDigest(heap); dw != dh {
				t.Errorf("kernel digest divergence on seed=%d index=%d: wheel %016x, heap %016x",
					seed, idx, uint64(dw), uint64(dh))
			}
		}
	}
}

// TestKernelJournalByteEquivalence journals the same scenario under
// each kernel and requires the two journals to hold byte-identical
// records and snapshots: the kernels agree not just on final artifacts
// but on every write-ahead state transition and every control-plane
// snapshot (clock cursor and scheduler state fold included).
func TestKernelJournalByteEquivalence(t *testing.T) {
	const interval = 7
	for _, sc := range kernelCorpus() {
		bw := journal.NewMemBackend()
		if _, err := pipeline.Run(sc, RunConfig{Journal: journal.NewWriter(bw, interval), NewClock: vclock.New}); err != nil {
			t.Fatalf("wheel journaled run: %v\n  %s", err, sc)
		}
		bh := journal.NewMemBackend()
		if _, err := pipeline.Run(sc, RunConfig{Journal: journal.NewWriter(bh, interval), NewClock: vclock.NewHeap}); err != nil {
			t.Fatalf("heap journaled run: %v\n  %s", err, sc)
		}
		diff, err := journal.Diff(bw, bh)
		if err != nil {
			t.Fatal(err)
		}
		if diff != "" {
			t.Errorf("journals diverge between kernels on seed=%d index=%d: %s",
				sc.BatchSeed, sc.Index, diff)
		}
	}
}

// TestKernelCrossRecovery crashes a journaled wheel-kernel run and
// recovers it on the heap kernel (and vice versa): recovery re-executes
// the pipeline, so a byte-verified resume across kernels proves the
// write-ahead log is kernel-independent.
func TestKernelCrossRecovery(t *testing.T) {
	const interval = 7
	sc := Generate(4, 2) // replan-adopting scenario: hardest recovery
	for _, dir := range []struct {
		name           string
		first, resumed func() *vclock.Clock
	}{
		{"wheel-then-heap", vclock.New, vclock.NewHeap},
		{"heap-then-wheel", vclock.NewHeap, vclock.New},
	} {
		t.Run(dir.name, func(t *testing.T) {
			// Reference run to learn the journal length.
			ref := journal.NewMemBackend()
			w := journal.NewWriter(ref, interval)
			a, err := pipeline.Run(sc, RunConfig{Journal: w, NewClock: dir.first})
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			want, total := ComputeDigest(a), w.Seq()

			// Crashed run on the first kernel.
			crashed := journal.NewMemBackend()
			wc := journal.NewWriter(crashed, interval)
			wc.SetCrashPoint(total/2, 0)
			if _, err := pipeline.Run(sc, RunConfig{Journal: wc, NewClock: dir.first}); err == nil {
				t.Fatal("crash point did not kill the run")
			}

			// Recovery on the other kernel must byte-verify the prefix and
			// converge to the same digest.
			w2, _, damage, err := journal.Resume(crashed, interval)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if damage != "" {
				t.Fatalf("unexpected damage on clean crash: %q", damage)
			}
			ar, err := pipeline.Run(sc, RunConfig{Journal: w2, NewClock: dir.resumed})
			if err != nil {
				t.Fatalf("cross-kernel recovery: %v", err)
			}
			if got := ComputeDigest(ar); got != want {
				t.Errorf("cross-kernel recovery digest %016x, want %016x", uint64(got), uint64(want))
			}
			if diff, err := journal.Diff(ref, crashed); err != nil || diff != "" {
				t.Errorf("recovered journal differs from reference: %s (err=%v)", diff, err)
			}
		})
	}
}

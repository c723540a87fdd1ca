package serve

import (
	"encoding/json"
	"net/http"
	"path/filepath"
	"testing"

	"repro/internal/journal"
	"repro/internal/pipeline"
)

// grantAll is the uncontended gate: every request granted in full.
func grantAll(req pipeline.GrantRequest) int { return req.Want }

// refRun executes sub's scenario uncontended and journaled offline,
// returning the reference digest and the journal's total record count
// (for picking crash points).
func refRun(t *testing.T, sub Submission) (pipeline.Digest, uint64) {
	t.Helper()
	sc, err := BuildScenario(sub)
	if err != nil {
		t.Fatal(err)
	}
	b := journal.NewMemBackend()
	w := journal.NewWriter(b, 8)
	r, err := pipeline.Start(sc, pipeline.RunConfig{Journal: w, Gate: grantAll})
	if err != nil {
		t.Fatal(err)
	}
	for !r.Done() {
		if err := r.Step(); err != nil {
			t.Fatal(err)
		}
	}
	a, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return pipeline.ComputeDigest(a), w.Seq()
}

// TestServerCrashRecoveryAcrossGenerations: generation A is killed
// mid-run with several live experiments (crash points injected into
// their journal writers, one with a torn tail); generation B starts on
// the same data directory, adopts the completed run from its replay
// sidecar, and resumes every unfinished journal by verified
// re-execution — each recovering to the same digest as an uninterrupted
// run. The cluster is uncontended (capacity >> demand) so grants are
// reproducible across generations and the uninterrupted reference is
// well-defined.
func TestServerCrashRecoveryAcrossGenerations(t *testing.T) {
	dataDir := t.TempDir()
	subs := []Submission{
		smallSub("acme", 301), // completes in generation A
		smallSub("acme", 302), // crashes early
		smallSub("beta", 303), // crashes mid-run, torn tail
		smallSub("ceta", 304), // crashes late
	}
	wantDigest := make([]pipeline.Digest, len(subs))
	totals := make([]uint64, len(subs))
	for i, sub := range subs {
		wantDigest[i], totals[i] = refRun(t, sub)
	}

	// Generation A: submissions arrive over HTTP; ids are assigned in
	// order (exp-0000..exp-0003). Crash points by id.
	cfg := Config{Capacity: 64, DataDir: dataDir, SnapshotInterval: 8}
	sA, tsA := newTestServer(t, cfg)
	crash := map[string][2]uint64{
		"exp-0001": {totals[1] / 4, 0},
		"exp-0002": {totals[2] / 2, 3},
		"exp-0003": {totals[3] * 3 / 4, 0},
	}
	sA.armJournal = func(id string, jw *journal.Writer) {
		if cp, ok := crash[id]; ok {
			jw.SetCrashPoint(cp[0], int(cp[1]))
		}
	}
	ids := make([]string, len(subs))
	for i, sub := range subs {
		resp, body := postSub(t, tsA, sub)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, body)
		}
		var st Status
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	for i, want := range []string{"exp-0000", "exp-0001", "exp-0002", "exp-0003"} {
		if ids[i] != want {
			t.Fatalf("ids = %v", ids)
		}
	}
	sA.Drain()
	sA.Close() // all drivers finished; journals closed

	if st := mustGet(t, sA, ids[0]).State(); st != StateDone {
		t.Fatalf("gen A survivor state = %v", st)
	}
	for _, id := range ids[1:] {
		if st := mustGet(t, sA, id).State(); st != StateFailed {
			t.Fatalf("gen A %s state = %v, want failed", id, st)
		}
	}

	// Generation B: fresh process state, same data directory.
	sB, _ := newTestServer(t, cfg)
	rep, err := sB.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Adopted != 1 || rep.Resumed != 3 || len(rep.Failed) != 0 {
		t.Fatalf("recover report = %+v", rep)
	}
	if len(rep.Damaged) != 1 || rep.Damaged[0] != "exp-0002" {
		t.Fatalf("damaged = %v, want [exp-0002] (torn tail)", rep.Damaged)
	}
	if live := sB.arb.Live(); live != 0 {
		t.Fatalf("%d experiments still hold GPUs after recovery", live)
	}

	// Every experiment — adopted and resumed — reads done with the same
	// digest as its uninterrupted reference, and its replay tuple
	// verifies offline.
	for i, id := range ids {
		exp := mustGet(t, sB, id)
		if st := exp.State(); st != StateDone {
			t.Fatalf("recovered %s state = %v", id, st)
		}
		tup, ok := exp.Tuple()
		if !ok {
			t.Fatalf("recovered %s has no tuple", id)
		}
		if tup.Digest != DigestString(wantDigest[i]) {
			t.Fatalf("%s recovered digest %s != uninterrupted %s", id, tup.Digest, DigestString(wantDigest[i]))
		}
		if _, err := VerifyReplay(tup); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}

	// New submissions never collide with recovered ids.
	exp, err := sB.reg.Submit(smallSub("acme", 999), nil)
	if err != nil {
		t.Fatal(err)
	}
	if exp.ID != "exp-0004" {
		t.Fatalf("post-recovery id = %s", exp.ID)
	}

	// Generation C: everything now has a replay sidecar — recovery is a
	// pure adoption pass, no re-execution.
	sC, _ := newTestServer(t, cfg)
	repC, err := sC.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if repC.Adopted != 4 || repC.Resumed != 0 || len(repC.Damaged) != 0 {
		t.Fatalf("gen C report = %+v", repC)
	}

	// The resumed journals carry the full grant record set on disk.
	for i, id := range ids {
		dir := filepath.Join(dataDir, subs[i].Tenant, id)
		fb, err := journal.NewFileBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		script, err := grantPrefix(fb)
		if cerr := fb.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(script) != len(subs[i].Stages) {
			t.Fatalf("%s journal holds %d grants for %d stages", id, len(script), len(subs[i].Stages))
		}
	}
}

// mustGet looks an experiment up in a server's registry.
func mustGet(t *testing.T, s *Server, id string) *Experiment {
	t.Helper()
	exp, ok := s.reg.Get(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	return exp
}

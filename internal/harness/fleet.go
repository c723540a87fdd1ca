package harness

import (
	"fmt"
	"sort"
)

// CheckFleetInvariants is the cross-experiment fairness oracle: it
// replays an arbiter event log and verifies, at every point in time,
//
//   - capacity conservation: the sum of live holds never exceeds the
//     cluster capacity, and every live experiment holds at least 1 GPU;
//   - exactly-once lifecycle: every experiment is admitted at most once,
//     only after a submit, is granted only while live, and completes
//     exactly once — no admitted experiment is lost or double-run;
//   - per-tenant FIFO: a tenant's experiments are admitted in submission
//     order;
//   - bounded admission wait: between an experiment's submission and its
//     admission, at most admitBound other admissions occur — no tenant
//     with pending work starves behind an unbounded stream of later
//     arrivals.
//
// Rejected submissions ("reject") leave the queue and owe nothing.
func CheckFleetInvariants(log []FleetEvent, capacity, admitBound int) []Violation {
	const oracle = "fleet-fairness"
	var out []Violation
	fail := func(format string, args ...any) {
		out = append(out, Violation{Oracle: oracle, Detail: fmt.Sprintf(format, args...)})
	}

	type expState struct {
		tenant     string
		submitSeq  int
		submitPos  int // admissions seen at submit time
		admitted   bool
		done       bool
		held       int
		everLive   bool
		rejectSeen bool
	}
	exps := make(map[string]*expState)
	lastAdmitSeq := make(map[string]int) // tenant -> submit seq of last admitted exp
	totalHeld, admissions := 0, 0

	for i, e := range log {
		if e.Seq != i {
			fail("event %d carries seq %d: log not in global order", i, e.Seq)
		}
		st := exps[e.Exp]
		switch e.Kind {
		case "submit":
			if st != nil {
				fail("experiment %s submitted twice (event %d)", e.Exp, i)
				continue
			}
			exps[e.Exp] = &expState{tenant: e.Tenant, submitSeq: i, submitPos: admissions}
		case "reject":
			if st == nil {
				// A rejected submission may never have entered the log as a
				// submit (queue-full refusals happen before enqueue); that
				// is fine, record it for lifecycle checks.
				exps[e.Exp] = &expState{tenant: e.Tenant, rejectSeen: true}
				continue
			}
			if st.admitted {
				fail("experiment %s rejected after admission (event %d)", e.Exp, i)
			}
			st.rejectSeen = true
		case "admit":
			if st == nil {
				fail("experiment %s admitted without submission (event %d)", e.Exp, i)
				continue
			}
			if st.admitted || st.rejectSeen {
				fail("experiment %s admitted twice or after rejection (event %d)", e.Exp, i)
				continue
			}
			if e.Held < 1 {
				fail("experiment %s admitted holding %d GPUs, want >= 1", e.Exp, e.Held)
			}
			// Per-tenant FIFO: this tenant's previous admission must have
			// been submitted earlier.
			if prev, ok := lastAdmitSeq[st.tenant]; ok && prev > st.submitSeq {
				fail("tenant %s admitted %s (submitted at %d) after a later submission (%d): not FIFO",
					st.tenant, e.Exp, st.submitSeq, prev)
			}
			lastAdmitSeq[st.tenant] = st.submitSeq
			// Bounded wait: admissions that jumped this experiment.
			if waited := admissions - st.submitPos; waited > admitBound {
				fail("experiment %s (tenant %s) waited behind %d admissions, bound is %d",
					e.Exp, st.tenant, waited, admitBound)
			}
			st.admitted, st.everLive = true, true
			st.held = e.Held
			totalHeld += e.Held
			admissions++
		case "grant":
			if st == nil || !st.admitted || st.done {
				fail("grant to non-live experiment %s (event %d)", e.Exp, i)
				continue
			}
			if e.Granted < 1 || (e.Want >= 1 && e.Granted > e.Want) {
				fail("experiment %s stage %d granted %d GPUs for a request of %d", e.Exp, e.Stage, e.Granted, e.Want)
			}
			if e.Held != e.Granted {
				fail("experiment %s stage %d holds %d after a grant of %d", e.Exp, e.Stage, e.Held, e.Granted)
			}
			totalHeld += e.Held - st.held
			st.held = e.Held
		case "done":
			if st == nil || !st.admitted {
				fail("completion of never-admitted experiment %s (event %d)", e.Exp, i)
				continue
			}
			if st.done {
				fail("experiment %s completed twice (event %d)", e.Exp, i)
				continue
			}
			totalHeld -= st.held
			st.held = 0
			st.done = true
		default:
			fail("unknown event kind %q (event %d)", e.Kind, i)
		}
		if totalHeld > capacity {
			fail("after event %d (%s %s): %d GPUs held on a %d-GPU cluster", i, e.Kind, e.Exp, totalHeld, capacity)
		}
		if totalHeld < 0 {
			fail("after event %d: negative total hold %d", i, totalHeld)
		}
	}

	// Every admitted experiment must complete: the log is inspected after
	// the fleet drains, so a live leftover is a lost experiment. Sorted
	// so violation order is deterministic.
	ids := make([]string, 0, len(exps))
	for id := range exps {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if st := exps[id]; st.admitted && !st.done {
			fail("experiment %s (tenant %s) admitted but never completed: lost", id, st.tenant)
		}
	}
	return out
}

package pipeline

// FleetEvent is one action in a cross-experiment arbiter's event log:
// submissions, admissions, stage-boundary grants, and completions across
// every tenant sharing one cluster. The serve control plane emits these
// as plain data so the chaos harness's fleet oracle
// (harness.CheckFleetInvariants) can check fleet-wide invariants without
// importing serve.
type FleetEvent struct {
	// Seq is the event's position in the global arbiter order.
	Seq int
	// Kind is one of "submit", "reject", "admit", "grant", "done".
	Kind string
	// Exp and Tenant identify the experiment the event concerns.
	Exp    string
	Tenant string
	// Stage, Want and Granted describe a "grant" event.
	Stage   int
	Want    int
	Granted int
	// Held is the experiment's GPU hold after the event.
	Held int
}

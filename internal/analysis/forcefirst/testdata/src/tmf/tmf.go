// Test fixture for the forcefirst analyzer, tmf vocabulary: ENDED
// broadcasts, ENDED delivery to children, and raw MonitorTrail appends
// must be dominated by a decision-log append or trail force in the same
// region.
package tmf

type DecisionLog struct{}

func (l *DecisionLog) Append(v int) {}

type MonitorTrail struct{}

func (t *MonitorTrail) Append(v int) {}

type state int

const (
	StateActive state = iota
	StateEnded
	StateAborted
)

const (
	kindEnded    = "tmp.ended"
	kindAborting = "tmp.aborting"
)

func broadcast(st state)  {}
func deliver(kind string) {}

// record is the core's commit-record effect: it forces, as recordOutcome.
func record() {}

// recordOutcome is the blessed single MAT-write path: its own append IS
// the force, not a leak of it.
func recordOutcome(t *MonitorTrail) {
	t.Append(1)
}

func badBroadcast() {
	broadcast(StateEnded) // want "broadcast of a terminal state externalizes the outcome"
}

// goodIntent: Ending/Aborting intents (non-terminal states) may precede
// the force.
func goodIntent() {
	broadcast(StateActive)
}

func goodForced(l *DecisionLog) {
	l.Append(1)
	broadcast(StateAborted)
	deliver(kindEnded)
}

// goodRecorded: the core's commit order, record first.
func goodRecorded() {
	record()
	broadcast(StateEnded)
	deliver(kindEnded)
}

// badRecordAfter: ENDED before the commit record.
func badRecordAfter() {
	broadcast(StateEnded) // want "broadcast of a terminal state externalizes the outcome"
	record()
}

func badDeliver() {
	deliver(kindEnded) // want "commit delivery to children externalizes the outcome"
}

// goodAbortFirst: ABORTING may reach the children before the abort record.
func goodAbortFirst() {
	deliver(kindAborting)
}

// goodAbortedBeforeRecord: the abort record is not forced, so ABORTED may
// be announced without a force (presumed abort).
func goodAbortedBeforeRecord() {
	broadcast(StateAborted)
}

func badTrailAppend(t *MonitorTrail) {
	t.Append(2) // want "MonitorTrail.Append outside recordOutcome externalizes the outcome"
}

// handlePrologue: a force before the switch dominates every case.
func handlePrologue(l *DecisionLog, kind int) {
	l.Append(kind)
	switch kind {
	case 1:
		broadcast(StateEnded)
	case 2:
		deliver(kindEnded)
	}
}

// handlePerCase: a force inside one case must not license an
// externalization in a different case — each case is its own request path.
func handlePerCase(l *DecisionLog, kind int) {
	switch kind {
	case 1:
		l.Append(1)
		broadcast(StateEnded)
	case 2:
		deliver(kindEnded) // want "commit delivery to children externalizes the outcome"
	}
}

// allowedLeak: directive suppression, identical to the vettool's.
func allowedLeak() {
	//lint:allow forcefirst test fixture: deliberately suppressed externalization
	broadcast(StateEnded)
}

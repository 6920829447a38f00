// Package txid defines transaction identifiers and transaction states as
// the paper specifies them.
//
// "The transid consists of a sequence number, qualified by the number of
// the processor in which BEGIN-TRANSACTION was called, qualified by the
// number of the network node which originated the transaction, designated
// the 'home' node for the transaction."
package txid

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"encompass/internal/msg"
)

// ID is a network-wide unique transaction identifier.
type ID struct {
	Home string // originating ("home") node
	CPU  int    // processor where BEGIN-TRANSACTION ran
	Seq  uint64 // per-CPU sequence number
}

// IsZero reports whether the ID is unset.
func (id ID) IsZero() bool { return id == ID{} }

// String renders the transid as \home(cpu).seq, the paper's notation. It
// is built in a stack buffer, so the string is the one allocation (for
// any home name of up to 20 bytes).
func (id ID) String() string {
	var buf [64]byte
	b := append(buf[:0], '\\')
	b = append(b, id.Home...)
	b = append(b, '(')
	b = strconv.AppendInt(b, int64(id.CPU), 10)
	b = append(b, ")."...)
	b = strconv.AppendUint(b, id.Seq, 10)
	return string(b)
}

// ErrBadID reports a transid string that does not parse.
var ErrBadID = errors.New("txid: malformed transid")

// Parse decodes the \home(cpu).seq notation produced by String. A valid
// transid round-trips: Parse(id.String()) == id for any id whose Home
// contains no '(' and is non-empty.
func Parse(s string) (ID, error) {
	if !strings.HasPrefix(s, `\`) {
		return ID{}, fmt.Errorf(`%w: %q lacks leading \`, ErrBadID, s)
	}
	rest := s[1:]
	open := strings.Index(rest, "(")
	if open <= 0 {
		return ID{}, fmt.Errorf("%w: %q lacks (cpu)", ErrBadID, s)
	}
	home := rest[:open]
	rest = rest[open+1:]
	sep := strings.Index(rest, ").")
	if sep < 0 {
		return ID{}, fmt.Errorf("%w: %q lacks ).seq", ErrBadID, s)
	}
	cpu, err := strconv.Atoi(rest[:sep])
	if err != nil || cpu < 0 {
		return ID{}, fmt.Errorf("%w: bad cpu in %q", ErrBadID, s)
	}
	seq, err := strconv.ParseUint(rest[sep+2:], 10, 64)
	if err != nil {
		return ID{}, fmt.Errorf("%w: bad seq in %q", ErrBadID, s)
	}
	return ID{Home: home, CPU: cpu, Seq: seq}, nil
}

// State is a transaction state per Figure 3 of the paper.
type State int

// Transaction states and their transitions (Figure 3):
//
//	Active  --END-->   Ending  --phase two--> Ended
//	Active  --FAILURE/ABORT--> Aborting --backout--> Aborted
//	Ending  --FAILURE/phase-one refusal--> Aborting
const (
	StateNone State = iota // transid not known on this node
	StateActive
	StateEnding
	StateEnded
	StateAborting
	StateAborted
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateNone:
		return "none"
	case StateActive:
		return "active"
	case StateEnding:
		return "ending"
	case StateEnded:
		return "ended"
	case StateAborting:
		return "aborting"
	case StateAborted:
		return "aborted"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == StateEnded || s == StateAborted }

// CanTransition reports whether moving from s to next is legal per
// Figure 3. StateNone → StateActive covers BEGIN-TRANSACTION and
// remote-transaction-begin.
func (s State) CanTransition(next State) bool {
	switch s {
	case StateNone:
		return next == StateActive
	case StateActive:
		return next == StateEnding || next == StateAborting
	case StateEnding:
		return next == StateEnded || next == StateAborting
	case StateAborting:
		return next == StateAborted
	default:
		return false
	}
}

func init() {
	msg.RegisterPayload(ID{})
}

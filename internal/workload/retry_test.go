package workload

import (
	"errors"
	"fmt"
	"testing"

	"encompass/internal/lock"
	"encompass/internal/msg"
)

// TestIsRetryable: a transaction is restarted when its lock wait timed
// out or was cancelled by TMF's abort, or when it was aborted — whether
// the error is the sentinel itself, wraps it, or arrives as another
// node's remote text — and not for an application error.
func TestIsRetryable(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{lock.ErrReleased, true},
		{fmt.Errorf("fsys: readlock: %w", lock.ErrReleased), true},
		{errors.New("msg: remote error: lock: wait cancelled by transaction release"), true},
		{&msg.RemoteError{Msg: lock.ErrReleased.Error()}, true},
		{lock.ErrTimeout, true},
		{&msg.RemoteError{Msg: lock.ErrTimeout.Error()}, true},
		{errors.New("tmf: transaction aborted: \\a(0).7 (state aborted at END)"), true},
		{errors.New("msg: remote error: dbfile: record not found"), false},
		{errors.New("encompass: node a has no up CPUs"), false},
	} {
		if got := isRetryable(tc.err); got != tc.want {
			t.Errorf("isRetryable(%q) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

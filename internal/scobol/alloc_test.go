//go:build !race

package scobol

import "testing"

// fixedRT is a Runtime that allocates nothing: one input screen, one
// reply, one transid.
type fixedRT struct{ in, reply map[string]string }

func (r *fixedRT) Accept(string, []string) (map[string]string, error) { return r.in, nil }
func (r *fixedRT) Display(string)                                     {}
func (r *fixedRT) Send(string, map[string]string) (map[string]string, error) {
	return r.reply, nil
}
func (r *fixedRT) Begin() (string, error) { return "tx-1", nil }
func (r *fixedRT) End() error             { return nil }
func (r *fixedRT) Abort() error           { return nil }

// reusedRequesterAllocs is what a reused, Reset debit/credit requester
// costs per transaction: the SEND request map, which the server class
// owns once Send returns. It is an input to the per-layer cost table
// (ROADMAP [cost]); CHANGES.md has its history.
const reusedRequesterAllocs = 2

// TestReusedRequesterAllocs pins the requester's per-transaction cost.
func TestReusedRequesterAllocs(t *testing.T) {
	rt := &fixedRT{
		in:    map[string]string{"ACCT": "a0000001", "TELLER": "t00001", "BRANCH": "b001", "AMOUNT": "17", "TAG": "h-1"},
		reply: map[string]string{"STATUS": "OK"},
	}
	e := NewExec(MustParse(debitCredit), rt, Options{MaxRestarts: 5})
	var err error
	n := testing.AllocsPerRun(200, func() {
		e.Reset()
		if e2 := e.Run(); e2 != nil {
			err = e2
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("reused debit/credit requester = %v allocs", n)
	if n > reusedRequesterAllocs {
		t.Errorf("reused debit/credit requester = %v allocs, want <= %d", n, reusedRequesterAllocs)
	}
}

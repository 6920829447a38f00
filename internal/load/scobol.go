// Package load fronts a node with the paper's requester shape: ScobolTx
// runs a ScreenCOBOL requester program as a transaction body, standing in
// for the Terminal Control Process. The driver that issues the bodies is
// workload.Driver.
package load

import (
	"sync"
	"time"

	"encompass"
	"encompass/internal/scobol"
	"encompass/internal/txid"
	"encompass/internal/workload"
)

// Tx is the transaction body ScobolTx returns.
type Tx = workload.Body

// ScobolTx returns a Tx that runs one execution of a ScreenCOBOL requester
// program per transaction, fronting the load with the paper's requester
// shape: the program ACCEPTs the supplied terminal input, brackets its
// SENDs in BEGIN/END-TRANSACTION, and the interpreter's restart logic
// re-drives it when the system aborts. Each terminal routes its server
// SENDs from its own CPU (terminal mod CPU count), so requests originate
// on every processor of the node as a terminal population's would.
//
// A requester (the execution and its runtime) is reused from one
// transaction to the next through a pool and reset before each run, so
// the interpreter itself allocates only the SEND requests it hands to the
// server class. A requester serves one transaction at a time.
func ScobolTx(node *encompass.Node, src string, inputs map[string]string) (Tx, error) {
	prog, err := scobol.Parse(src)
	if err != nil {
		return nil, err
	}
	ncpu := node.HW.NumCPUs()
	pool := sync.Pool{New: func() any {
		r := &requester{rt: scobolRuntime{node: node, inputs: inputs}}
		r.exec = scobol.NewExec(prog, &r.rt, scobol.Options{MaxRestarts: 5})
		return r
	}}
	return func(term, seq int) error {
		r := pool.Get().(*requester)
		defer pool.Put(r)
		r.rt.cpu, r.rt.tx = term%ncpu, nil
		r.exec.Reset()
		return r.exec.Run()
	}, nil
}

// requester is one reusable program execution and the runtime it runs
// against.
type requester struct {
	rt   scobolRuntime
	exec *scobol.Exec
}

// scobolRuntime adapts one program execution to the node's TMF verbs,
// standing in for the Terminal Control Process: terminal input comes from
// a fixed field map, DISPLAY output is discarded, and SENDs go to the
// node's server classes from the terminal's CPU.
type scobolRuntime struct {
	node   *encompass.Node
	cpu    int
	inputs map[string]string
	tx     *encompass.Tx
}

// Accept returns the terminal's input map itself: the interpreter only
// reads the map it is given, so a copy per transaction would buy nothing.
func (r *scobolRuntime) Accept(screen string, fields []string) (map[string]string, error) {
	return r.inputs, nil
}

func (r *scobolRuntime) Display(string) {}

func (r *scobolRuntime) Send(server string, req map[string]string) (map[string]string, error) {
	var id txid.ID
	if r.tx != nil {
		id = r.tx.ID
	}
	return r.node.CallServerFrom(r.cpu, "", server, id, req, 10*time.Second)
}

func (r *scobolRuntime) Begin() (string, error) {
	tx, err := r.node.Begin()
	if err != nil {
		return "", err
	}
	r.tx = tx
	return tx.ID.String(), nil
}

func (r *scobolRuntime) End() error {
	if r.tx == nil {
		return nil
	}
	err := r.tx.Commit()
	r.tx = nil
	return err
}

func (r *scobolRuntime) Abort() error {
	if r.tx == nil {
		return nil
	}
	err := r.tx.Abort("requester abort")
	r.tx = nil
	return err
}

package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"encompass"
	"encompass/internal/appserver"
	"encompass/internal/fsys"
	"encompass/internal/load"
	"encompass/internal/lock"
	"encompass/internal/scobol"
	"encompass/internal/txid"
)

// terminals is the closed-loop client count: one per core of the 2-core
// host, each waiting for its reply before sending its next input.
const terminals = 2

// maxRetries bounds RESTART-TRANSACTION-style retries of one input.
const maxRetries = 5

// workload is one fixed set of inputs and the system it runs against.
type workload struct {
	name string
	// mix is the share of each op kind in percent; every workload issues
	// all three kinds so every end-to-end metric exists everywhere.
	mix [numKinds]int
	// roundOps is the op count of one round (both terminals together) at
	// refSeconds, sized so a round takes about refSeconds/measuredRounds
	// on the commit that introduced the benchmark. Frozen: changing it
	// changes what every metric means.
	roundOps  int
	keysPerOp int
	fill      func(rng *rand.Rand, o *op)
	build     func() (*env, error)
}

// env is one built, seeded, running system plus the application on it.
type env struct {
	sys  *encompass.System
	home *encompass.Node // where the terminals attach; the node that crashes
	app  app
	// class is tp1_terminal's server class; nil elsewhere.
	class *appserver.Class
	// tr is the current round's tracer (nil when untraced), for code that
	// outlives a round: the server class's instances.
	tr atomic.Pointer[tracer]
}

// app is the workload's application code: what a terminal input does.
type app interface {
	// seedRecords enumerates the records set-up inserts, with the node
	// that owns each; set-up and the oracle's shadow model both use it.
	seedRecords(emit func(node *encompass.Node, file, key string, bal int64))
	// transact runs the update transaction for o and commits it — or,
	// when abort is set, does the same work and then aborts, returning how
	// long the Tx.Abort call took.
	transact(t *terminal, o *op, tag string, abort bool) (time.Duration, error)
	inquiry(t *terminal, o *op) error
	// apply folds one committed update into the shadow model.
	apply(m *model, o *op, tag string)
}

// terminal is one closed-loop client.
type terminal struct {
	id int
	tr *tracer // nil in untraced rounds

	// tp1_terminal only: the input screen and the ScreenCOBOL front end
	// that reads it, made on the terminal's first update.
	inputs map[string]string
	scobol load.Tx
}

var workloads = []*workload{tp1Terminal(), transferWAN(), inquiryMix(), batchBackout()}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// recKey renders prefix followed by n zero-padded to width digits.
func recKey(prefix byte, n int32, width int) string {
	var buf [16]byte
	buf[0] = prefix
	for i := width; i >= 1; i-- {
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[:width+1])
}

// opTag names one op uniquely; update transactions append it to history.
func opTag(round, term, idx int) string {
	b := make([]byte, 0, 24)
	b = append(b, 'r')
	b = strconv.AppendInt(b, int64(round), 10)
	b = append(b, '.', 't')
	b = strconv.AppendInt(b, int64(term), 10)
	b = append(b, '.', 'i')
	b = strconv.AppendInt(b, int64(idx), 10)
	return string(b)
}

func amount(rng *rand.Rand) int32 { return int32(rng.Intn(1999)) - 999 } // the classic TP1 delta

// retryable reports an error a terminal answers by restarting the
// transaction: a lock timeout (deadlock recovery) or a system abort.
func retryable(err error) bool {
	if errors.Is(err, lock.ErrTimeout) {
		return true
	}
	s := err.Error()
	for _, sub := range []string{"timed out", "aborted", "already ended"} {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}

// addTo is the step update transactions are made of: read a record with
// lock, add delta to its balance, write it back.
func addTo(fs *fsys.FS, tr *tracer, parent int, tx txid.ID, file, key string, delta int64) error {
	sp := tr.start("fsys.readlock", parent)
	cur, err := fs.ReadLock(tx, file, key)
	tr.end(sp)
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(cur), 10, 64)
	if err != nil {
		return fmt.Errorf("%s/%s holds %q: %w", file, key, cur, err)
	}
	sp = tr.start("fsys.update", parent)
	err = fs.Update(tx, file, key, strconv.AppendInt(nil, n+delta, 10))
	tr.end(sp)
	return err
}

func appendHistory(fs *fsys.FS, tr *tracer, parent int, tx txid.ID, tag string) error {
	sp := tr.start("fsys.append", parent)
	_, err := fs.Append(tx, "history", []byte(tag))
	tr.end(sp)
	return err
}

func readPoint(fs *fsys.FS, tr *tracer, file, key string) error {
	sp := tr.start("fsys.read", noSpan)
	_, err := fs.Read(file, key)
	tr.end(sp)
	return err
}

// runTx brackets body in BEGIN-TRANSACTION and END-TRANSACTION on node
// through the Tx API — or ABORT-TRANSACTION when abort is set, in which
// case it returns how long the Tx.Abort call took.
func runTx(node *encompass.Node, tr *tracer, abort bool, body func(tx txid.ID, parent int) error) (time.Duration, error) {
	rootName := "terminal.exec"
	if abort {
		rootName = "terminal.abort"
	}
	root := tr.start(rootName, noSpan)
	defer tr.end(root)
	sp := tr.start("tmf.begin", root)
	tx, err := node.Begin()
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	if tr != nil {
		tr.setTrace(root, tx.ID.String())
	}
	if err := body(tx.ID, root); err != nil {
		_ = tx.Abort(err.Error()) // the body's error is the one to report
		return 0, err
	}
	if abort {
		sp = tr.start("tmf.abort", root)
		t0 := time.Now()
		err = tx.Abort("bench: requested abort")
		d := time.Since(t0)
		tr.end(sp)
		return d, err
	}
	sp = tr.start("tmf.end", root)
	err = tx.Commit()
	tr.end(sp)
	return 0, err
}

// buildSystem assembles cfg, creates files everywhere, seeds a's records
// in chunked transactions on the node that owns each, and returns the env.
func buildSystem(cfg encompass.Config, home string, files []encompass.FileInfo, mk func(e *env) (app, error)) (*env, error) {
	sys, err := encompass.Build(cfg)
	if err != nil {
		return nil, err
	}
	for _, fi := range files {
		if err := sys.CreateFileEverywhere(fi); err != nil {
			return nil, err
		}
	}
	e := &env{sys: sys, home: sys.Node(home)}
	a, err := mk(e)
	if err != nil {
		return nil, err
	}
	e.app = a
	const chunk = 500
	var (
		tx     *encompass.Tx
		txNode *encompass.Node
		n      int
		ferr   error
	)
	a.seedRecords(func(node *encompass.Node, file, key string, bal int64) {
		if ferr != nil {
			return
		}
		if tx != nil && (node != txNode || n >= chunk) {
			ferr = tx.Commit()
			tx = nil
			if ferr != nil {
				return
			}
		}
		if tx == nil {
			tx, ferr = node.Begin()
			txNode, n = node, 0
			if ferr != nil {
				return
			}
		}
		ferr = tx.Insert(file, key, strconv.AppendInt(nil, bal, 10))
		n++
	})
	if ferr == nil && tx != nil {
		ferr = tx.Commit()
	}
	if ferr != nil {
		return nil, fmt.Errorf("seed: %w", ferr)
	}
	return e, nil
}

// ---- tp1_terminal ---------------------------------------------------------

const (
	tp1Branches    = 16
	tp1TellersPer  = 10
	tp1AccountsPer = 2000
	initialBalance = 1000
)

// debitCredit is the requester every tp1_terminal update runs: accept the
// teller's screen, SEND it to the bank server class inside a transaction,
// END on success and RESTART when the server could not finish.
const debitCredit = `
PROGRAM debitcredit.
WORKING-STORAGE.
  01 acct PIC X(12).
  01 teller PIC X(12).
  01 branch PIC X(12).
  01 amount PIC X(12).
  01 tag PIC X(24).
  01 status PIC X(32).
SCREEN teller-screen.
  FIELD acct.
  FIELD teller.
  FIELD branch.
  FIELD amount.
  FIELD tag.
END-SCREEN.
PROC.
  ACCEPT teller-screen.
  BEGIN-TRANSACTION.
  SEND "debitcredit" TO SERVER "bank" USING acct, teller, branch, amount, tag REPLYING status.
  IF SEND-STATUS = "OK" AND status = "OK" THEN
    END-TRANSACTION.
  ELSE
    RESTART-TRANSACTION.
  END-IF.
END-PROC.
`

func tp1Terminal() *workload {
	return &workload{
		name:      "tp1_terminal",
		mix:       [numKinds]int{kindUpdate: 85, kindInquiry: 10, kindAbort: 5},
		roundOps:  tp1RoundOps,
		keysPerOp: 3, // branch, teller within it, account within it
		fill: func(rng *rand.Rand, o *op) {
			o.keys[0] = int32(rng.Intn(tp1Branches))
			o.keys[1] = int32(rng.Intn(tp1TellersPer))
			o.keys[2] = int32(rng.Intn(tp1AccountsPer))
			o.amount = amount(rng)
		},
		build: func() (*env, error) {
			cfg := encompass.Config{Nodes: []encompass.NodeSpec{{
				Name: "n1", CPUs: 4,
				Volumes: []encompass.VolumeSpec{
					{Name: "v1", Audited: true, CacheSize: 65536},
					{Name: "v2", Audited: true, CacheSize: 65536},
				},
			}}}
			files := []encompass.FileInfo{
				encompass.LocalFile("accounts", encompass.KeySequenced, "n1", "v1"),
				encompass.LocalFile("tellers", encompass.KeySequenced, "n1", "v2"),
				encompass.LocalFile("branches", encompass.KeySequenced, "n1", "v2"),
				encompass.LocalFile("history", encompass.EntrySequenced, "n1", "v2"),
			}
			return buildSystem(cfg, "n1", files, func(e *env) (app, error) {
				a := &tp1App{env: e, node: e.home}
				var err error
				if a.prog, err = scobol.Parse(debitCredit); err != nil {
					return nil, err
				}
				e.class, err = a.node.StartServerClass(encompass.ServerClassConfig{
					Class: "bank", Handler: a.handle, MinInstances: terminals, MaxInstances: 2 * terminals,
				})
				return a, err
			})
		},
	}
}

type tp1App struct {
	env  *env
	node *encompass.Node
	prog *scobol.Program
}

func tp1Keys(o *op) (acct, teller, branch string) {
	b := o.keys[0]
	return recKey('a', b*tp1AccountsPer+o.keys[2], 7), recKey('t', b*tp1TellersPer+o.keys[1], 5), recKey('b', b, 3)
}

func (a *tp1App) seedRecords(emit func(node *encompass.Node, file, key string, bal int64)) {
	for b := int32(0); b < tp1Branches; b++ {
		emit(a.node, "branches", recKey('b', b, 3), 0)
	}
	for t := int32(0); t < tp1Branches*tp1TellersPer; t++ {
		emit(a.node, "tellers", recKey('t', t, 5), 0)
	}
	for n := int32(0); n < tp1Branches*tp1AccountsPer; n++ {
		emit(a.node, "accounts", recKey('a', n, 7), initialBalance)
	}
}

// handle is the context-free bank server: the TP1 debit/credit.
func (a *tp1App) handle(tx txid.ID, f map[string]string) (map[string]string, error) {
	tr, parent := a.env.tr.Load(), noSpan
	if tr != nil {
		parent, _ = strconv.Atoi(f["SPAN"])
	}
	sp := tr.start("handler", parent)
	defer tr.end(sp)
	amt, err := strconv.ParseInt(f["AMOUNT"], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("bank: amount %q: %w", f["AMOUNT"], err)
	}
	fs := a.node.FS
	for _, step := range [3][2]string{{"accounts", f["ACCT"]}, {"tellers", f["TELLER"]}, {"branches", f["BRANCH"]}} {
		if err := addTo(fs, tr, sp, tx, step[0], step[1], amt); err != nil {
			return nil, err
		}
	}
	if err := appendHistory(fs, tr, sp, tx, f["TAG"]); err != nil {
		return nil, err
	}
	return map[string]string{"STATUS": "OK"}, nil
}

func (a *tp1App) transact(t *terminal, o *op, tag string, abort bool) (time.Duration, error) {
	acct, teller, branch := tp1Keys(o)
	amt := strconv.Itoa(int(o.amount))
	if abort {
		// The requester cannot time its own ABORT-TRANSACTION, so an abort
		// SENDs the same request through the Tx API.
		return runTx(a.node, t.tr, true, func(tx txid.ID, parent int) error {
			_, err := a.send(t, parent, tx, map[string]string{
				"OP": "debitcredit", "ACCT": acct, "TELLER": teller, "BRANCH": branch, "AMOUNT": amt, "TAG": tag,
			})
			return err
		})
	}
	if t.scobol == nil {
		t.inputs = make(map[string]string, 5)
		var err error
		if t.scobol, err = load.ScobolTx(a.node, debitCredit, t.inputs); err != nil {
			return 0, err
		}
	}
	// The terminal's input screen; the requester's field map wants
	// upper-case keys.
	t.inputs["ACCT"], t.inputs["TELLER"], t.inputs["BRANCH"] = acct, teller, branch
	t.inputs["AMOUNT"], t.inputs["TAG"] = amt, tag
	if t.tr == nil {
		return 0, t.scobol(t.id, 0)
	}
	// The traced run needs spans around the requester's verbs, which
	// load.ScobolTx keeps to itself, so it runs the same program under the
	// driver's own Runtime.
	rt := &tracedRequester{a: a, t: t, root: t.tr.start("terminal.exec", noSpan)}
	defer t.tr.end(rt.root)
	return 0, scobol.NewExec(a.prog, rt, scobol.Options{MaxRestarts: maxRetries}).Run()
}

func (a *tp1App) inquiry(t *terminal, o *op) error {
	acct, _, _ := tp1Keys(o)
	return readPoint(a.node.FS, t.tr, "accounts", acct)
}

// send is the SEND verb: one request to the bank server class from the
// terminal's CPU, carrying the calling span so the handler's spans nest.
func (a *tp1App) send(t *terminal, parent int, tx txid.ID, req map[string]string) (map[string]string, error) {
	sp := t.tr.start("appserver.call", parent)
	defer t.tr.end(sp)
	if t.tr != nil {
		req["SPAN"] = strconv.Itoa(sp)
	}
	return a.node.CallServerFrom(t.id%a.node.HW.NumCPUs(), "", "bank", tx, req, 0)
}

func (a *tp1App) apply(m *model, o *op, tag string) {
	acct, teller, branch := tp1Keys(o)
	m.add("accounts", acct, int64(o.amount))
	m.add("tellers", teller, int64(o.amount))
	m.add("branches", branch, int64(o.amount))
	m.hist = append(m.hist, tag)
}

// tracedRequester is the scobol.Runtime of the traced run: load.ScobolTx's
// runtime with a span around each verb.
type tracedRequester struct {
	a    *tp1App
	t    *terminal
	root int
	tx   *encompass.Tx
}

func (r *tracedRequester) Accept(screen string, fields []string) (map[string]string, error) {
	out := make(map[string]string, len(fields))
	for _, f := range fields {
		out[f] = r.t.inputs[f]
	}
	return out, nil
}

func (r *tracedRequester) Display(string) {}

func (r *tracedRequester) Send(server string, req map[string]string) (map[string]string, error) {
	return r.a.send(r.t, r.root, r.tx.ID, req)
}

func (r *tracedRequester) Begin() (string, error) {
	sp := r.t.tr.start("tmf.begin", r.root)
	tx, err := r.a.node.Begin()
	r.t.tr.end(sp)
	if err != nil {
		return "", err
	}
	r.tx = tx
	id := tx.ID.String()
	r.t.tr.setTrace(r.root, id)
	return id, nil
}

func (r *tracedRequester) End() error {
	sp := r.t.tr.start("tmf.end", r.root)
	defer r.t.tr.end(sp)
	return r.tx.Commit()
}

func (r *tracedRequester) Abort() error { return r.tx.Abort("requester abort") }

// ---- transfer_wan ---------------------------------------------------------

const transferAccountsPerSide = 5000

func transferWAN() *workload {
	return &workload{
		name:      "transfer_wan",
		mix:       [numKinds]int{kindUpdate: 80, kindInquiry: 15, kindAbort: 5},
		roundOps:  transferRoundOps,
		keysPerOp: 2, // west account, east account
		fill: func(rng *rand.Rand, o *op) {
			o.keys[0] = int32(rng.Intn(transferAccountsPerSide))
			o.keys[1] = int32(rng.Intn(transferAccountsPerSide))
			o.amount = amount(rng)
		},
		build: func() (*env, error) {
			node := func(name, vol string) encompass.NodeSpec {
				return encompass.NodeSpec{Name: name, CPUs: 4, Volumes: []encompass.VolumeSpec{
					{Name: vol, Audited: true, CacheSize: 4096},
				}}
			}
			cfg := encompass.Config{
				Nodes:             []encompass.NodeSpec{node("west", "vw"), node("central", "vc"), node("east", "ve")},
				NetLatency:        time.Millisecond,
				AuditForceDelay:   2 * time.Millisecond,
				MonitorForceDelay: 2 * time.Millisecond,
			}
			files := []encompass.FileInfo{
				// Keys "e…" sort below "w", so east holds them and west the "w…" keys.
				encompass.PartitionedFile("accounts", encompass.KeySequenced,
					[][3]string{{"", "east", "ve"}, {"w", "west", "vw"}}),
				encompass.LocalFile("history", encompass.EntrySequenced, "central", "vc"),
			}
			return buildSystem(cfg, "west", files, func(e *env) (app, error) {
				return &transferApp{west: e.home, east: e.sys.Node("east")}, nil
			})
		},
	}
}

type transferApp struct{ west, east *encompass.Node }

func (a *transferApp) seedRecords(emit func(node *encompass.Node, file, key string, bal int64)) {
	for n := int32(0); n < transferAccountsPerSide; n++ {
		emit(a.west, "accounts", recKey('w', n, 6), initialBalance)
	}
	for n := int32(0); n < transferAccountsPerSide; n++ {
		emit(a.east, "accounts", recKey('e', n, 6), initialBalance)
	}
}

// transact moves the amount from a west account to an east account and
// logs it on central, all homed on west.
func (a *transferApp) transact(t *terminal, o *op, tag string, abort bool) (time.Duration, error) {
	fs := a.west.FS
	return runTx(a.west, t.tr, abort, func(tx txid.ID, parent int) error {
		if err := addTo(fs, t.tr, parent, tx, "accounts", recKey('w', o.keys[0], 6), -int64(o.amount)); err != nil {
			return err
		}
		if err := addTo(fs, t.tr, parent, tx, "accounts", recKey('e', o.keys[1], 6), int64(o.amount)); err != nil {
			return err
		}
		return appendHistory(fs, t.tr, parent, tx, tag)
	})
}

func (a *transferApp) inquiry(t *terminal, o *op) error {
	return readPoint(a.west.FS, t.tr, "accounts", recKey('e', o.keys[1], 6))
}

func (a *transferApp) apply(m *model, o *op, tag string) {
	m.add("accounts", recKey('w', o.keys[0], 6), -int64(o.amount))
	m.add("accounts", recKey('e', o.keys[1], 6), int64(o.amount))
	m.hist = append(m.hist, tag)
}

// ---- inquiry_mix ----------------------------------------------------------

const (
	inquiryAccounts  = 32000
	inquiryScanLen   = 20
	inquiryScanShare = 20 // percent of inquiries that read a range
)

func inquiryMix() *workload {
	return &workload{
		name:      "inquiry_mix",
		mix:       [numKinds]int{kindUpdate: 10, kindInquiry: 88, kindAbort: 2},
		roundOps:  inquiryRoundOps,
		keysPerOp: 1,
		fill: func(rng *rand.Rand, o *op) {
			o.keys[0] = int32(rng.Intn(inquiryAccounts - inquiryScanLen))
			o.scan = rng.Intn(100) < inquiryScanShare
			o.amount = amount(rng)
		},
		build: func() (*env, error) {
			cfg := encompass.Config{Nodes: []encompass.NodeSpec{{
				Name: "n1", CPUs: 4,
				Volumes: []encompass.VolumeSpec{
					{Name: "v1", Audited: true, CacheSize: 1024, MissPenalty: 200 * time.Microsecond},
				},
			}}}
			files := []encompass.FileInfo{encompass.LocalFile("accounts", encompass.KeySequenced, "n1", "v1")}
			return buildSystem(cfg, "n1", files, func(e *env) (app, error) {
				return &inquiryApp{node: e.home}, nil
			})
		},
	}
}

type inquiryApp struct{ node *encompass.Node }

func (a *inquiryApp) seedRecords(emit func(node *encompass.Node, file, key string, bal int64)) {
	for n := int32(0); n < inquiryAccounts; n++ {
		emit(a.node, "accounts", recKey('a', n, 7), initialBalance)
	}
}

func (a *inquiryApp) transact(t *terminal, o *op, tag string, abort bool) (time.Duration, error) {
	return runTx(a.node, t.tr, abort, func(tx txid.ID, parent int) error {
		return addTo(a.node.FS, t.tr, parent, tx, "accounts", recKey('a', o.keys[0], 7), int64(o.amount))
	})
}

func (a *inquiryApp) inquiry(t *terminal, o *op) error {
	if !o.scan {
		return readPoint(a.node.FS, t.tr, "accounts", recKey('a', o.keys[0], 7))
	}
	sp := t.tr.start("fsys.readrange", noSpan)
	recs, err := a.node.FS.ReadRange("accounts", recKey('a', o.keys[0], 7), "", inquiryScanLen)
	t.tr.end(sp)
	if err == nil && len(recs) != inquiryScanLen {
		err = fmt.Errorf("scan from %d returned %d records, want %d", o.keys[0], len(recs), inquiryScanLen)
	}
	return err
}

func (a *inquiryApp) apply(m *model, o *op, tag string) {
	m.add("accounts", recKey('a', o.keys[0], 7), int64(o.amount))
}

// ---- batch_backout --------------------------------------------------------

const (
	batchItemsPerVolume = 10000
	batchPerVolume      = 20 // records a transaction updates on each of the two volumes
)

func batchBackout() *workload {
	return &workload{
		name:      "batch_backout",
		mix:       [numKinds]int{kindUpdate: 65, kindInquiry: 5, kindAbort: 30},
		roundOps:  batchRoundOps,
		keysPerOp: 2 * batchPerVolume,
		// Each half of keys is distinct and ascending, and every
		// transaction locks volume one's records before volume two's, so
		// two terminals can wait for each other but never deadlock.
		fill: func(rng *rand.Rand, o *op) {
			for half := 0; half < 2; half++ {
				keys := o.keys[half*batchPerVolume : (half+1)*batchPerVolume]
				seen := make(map[int32]bool, batchPerVolume)
				for i := range keys {
					k := int32(rng.Intn(batchItemsPerVolume))
					for seen[k] {
						k = int32(rng.Intn(batchItemsPerVolume))
					}
					seen[k], keys[i] = true, k
				}
				sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			}
			o.amount = amount(rng)
		},
		build: func() (*env, error) {
			cfg := encompass.Config{
				Nodes: []encompass.NodeSpec{{
					Name: "n1", CPUs: 4,
					Volumes: []encompass.VolumeSpec{
						{Name: "v1", Audited: true, AuditGroup: "g", CacheSize: 32768},
						{Name: "v2", Audited: true, AuditGroup: "g", CacheSize: 32768},
					},
				}},
				AuditForceDelay: time.Millisecond,
			}
			files := []encompass.FileInfo{
				// Keys "a…" live on v1, keys "z…" on v2.
				encompass.PartitionedFile("items", encompass.KeySequenced,
					[][3]string{{"", "n1", "v1"}, {"m", "n1", "v2"}}),
			}
			return buildSystem(cfg, "n1", files, func(e *env) (app, error) {
				return &batchApp{node: e.home}, nil
			})
		},
	}
}

type batchApp struct{ node *encompass.Node }

func batchKey(i int, k int32) string {
	if i < batchPerVolume {
		return recKey('a', k, 6)
	}
	return recKey('z', k, 6)
}

func (a *batchApp) seedRecords(emit func(node *encompass.Node, file, key string, bal int64)) {
	for _, prefix := range []byte{'a', 'z'} {
		for n := int32(0); n < batchItemsPerVolume; n++ {
			emit(a.node, "items", recKey(prefix, n, 6), initialBalance)
		}
	}
}

func (a *batchApp) transact(t *terminal, o *op, tag string, abort bool) (time.Duration, error) {
	return runTx(a.node, t.tr, abort, func(tx txid.ID, parent int) error {
		for i, k := range o.keys {
			if err := addTo(a.node.FS, t.tr, parent, tx, "items", batchKey(i, k), int64(o.amount)); err != nil {
				return err
			}
		}
		return nil
	})
}

func (a *batchApp) inquiry(t *terminal, o *op) error {
	return readPoint(a.node.FS, t.tr, "items", batchKey(0, o.keys[0]))
}

func (a *batchApp) apply(m *model, o *op, tag string) {
	for i, k := range o.keys {
		m.add("items", batchKey(i, k), int64(o.amount))
	}
}

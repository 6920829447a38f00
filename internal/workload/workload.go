// Package workload drives transactions: Driver runs a body from a
// population of terminals, closed or open loop, for the tests, the
// experiments, DST and the examples. Bank is the body they mostly run,
// the banking (debit/credit, TP1-style) mix: the archetypal online
// transaction processing workload of the paper's era. Each transaction
// reads and updates an account, its teller and its branch, and appends a
// history record — four record touches, three of them updates.
package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"

	"encompass"
)

// BankConfig sizes the banking schema.
type BankConfig struct {
	// Placement maps branch ranges to nodes: branches are distributed
	// round-robin over these node/volume pairs.
	Placement []Placement
	Branches  int
	Tellers   int // per branch
	Accounts  int // per branch
	// HotAccounts, when > 0, directs that fraction (0..1) of transactions
	// at account 0 of branch 0 — a contention hot spot.
	HotAccounts float64
	// RemoteFraction directs that fraction of transactions at a branch
	// homed on a different node than the requester (distributed commits).
	RemoteFraction float64
	// Seed seeds the terminals' rngs (Body).
	Seed int64
}

// Placement is one (node, volume) location for bank branches.
type Placement struct {
	Node   string
	Volume string
}

// Bank is an installed banking workload.
type Bank struct {
	sys *encompass.System
	cfg BankConfig
}

// Keys.
func branchKey(b int) string     { return fmt.Sprintf("b%04d", b) }
func tellerKey(b, t int) string  { return fmt.Sprintf("b%04d-t%03d", b, t) }
func accountKey(b, a int) string { return fmt.Sprintf("b%04d-a%06d", b, a) }
func (c *BankConfig) nodeOf(b int) Placement {
	return c.Placement[b%len(c.Placement)]
}

// SetupBank creates and seeds the banking schema. Files are partitioned by
// branch key range across the configured placements.
func SetupBank(sys *encompass.System, cfg BankConfig) (*Bank, error) {
	if len(cfg.Placement) == 0 {
		return nil, errors.New("workload: no placement")
	}
	if cfg.Branches <= 0 {
		cfg.Branches = 2
	}
	if cfg.Tellers <= 0 {
		cfg.Tellers = 5
	}
	if cfg.Accounts <= 0 {
		cfg.Accounts = 100
	}
	b := &Bank{sys: sys, cfg: cfg}

	// One partition per placement: branch b lives at placement b%P, so
	// partition by explicit branch-key ranges only when P divides the key
	// space contiguously. Simpler and fully general: one file per
	// placement with a per-branch routing function — implemented as a
	// partitioned file keyed by branch when P==1, otherwise separate
	// catalog entries per node suffix.
	for i, pl := range cfg.Placement {
		suffix := partSuffix(i)
		for _, f := range []string{"accounts" + suffix, "tellers" + suffix, "branches" + suffix} {
			if err := sys.CreateFileEverywhere(encompass.LocalFile(f, encompass.KeySequenced, pl.Node, pl.Volume)); err != nil {
				return nil, err
			}
		}
		if err := sys.CreateFileEverywhere(encompass.LocalFile("history"+suffix, encompass.EntrySequenced, pl.Node, pl.Volume)); err != nil {
			return nil, err
		}
	}

	// Seed.
	for br := 0; br < cfg.Branches; br++ {
		pl := cfg.nodeOf(br)
		node := sys.Node(pl.Node)
		tx, err := node.Begin()
		if err != nil {
			return nil, err
		}
		suffix := partSuffix(br % len(cfg.Placement))
		if err := tx.Insert("branches"+suffix, branchKey(br), []byte("0")); err != nil {
			return nil, err
		}
		for t := 0; t < cfg.Tellers; t++ {
			if err := tx.Insert("tellers"+suffix, tellerKey(br, t), []byte("0")); err != nil {
				return nil, err
			}
		}
		for a := 0; a < cfg.Accounts; a++ {
			if err := tx.Insert("accounts"+suffix, accountKey(br, a), []byte("1000")); err != nil {
				return nil, err
			}
		}
		if err := tx.Commit(); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func partSuffix(i int) string { return "-p" + strconv.Itoa(i) }

// Body returns the debit/credit body of terminals at fromNode: terminal t
// draws every transaction from its own rng, seeded Seed+t.
func (b *Bank) Body(fromNode string) Body {
	var mu sync.Mutex
	rngs := map[int]*rand.Rand{}
	return func(term, _ int) error {
		mu.Lock()
		rng := rngs[term]
		if rng == nil {
			rng = rand.New(rand.NewSource(b.cfg.Seed + int64(term)))
			rngs[term] = rng
		}
		mu.Unlock()
		return b.OneTx(fromNode, rng)
	}
}

// OneTx runs one attempt of a debit/credit transaction originated at
// fromNode: it adds a pseudo-random amount to a pseudo-randomly chosen
// account, its teller and its branch, and appends a history record.
func (b *Bank) OneTx(fromNode string, rng *rand.Rand) error {
	cfg := &b.cfg
	br := rng.Intn(cfg.Branches)
	if cfg.RemoteFraction > 0 && rng.Float64() < cfg.RemoteFraction {
		// Pick a branch homed elsewhere, if one exists.
		for tries := 0; tries < 8 && cfg.nodeOf(br).Node == fromNode; tries++ {
			br = rng.Intn(cfg.Branches)
		}
	} else {
		for tries := 0; tries < 8 && cfg.nodeOf(br).Node != fromNode && hasLocalBranch(cfg, fromNode); tries++ {
			br = rng.Intn(cfg.Branches)
		}
	}
	acct := rng.Intn(cfg.Accounts)
	if cfg.HotAccounts > 0 && rng.Float64() < cfg.HotAccounts {
		br, acct = 0, 0
	}
	teller := rng.Intn(cfg.Tellers)
	amount := rng.Intn(1999) - 999 // classic TP1 delta

	from := b.sys.Node(fromNode)
	suffix := partSuffix(br % len(cfg.Placement))
	tx, err := from.Begin()
	if err != nil {
		return err
	}
	abort := func(e error) error {
		tx.Abort(e.Error())
		return e
	}
	add := func(file, key string) error {
		cur, err := from.FS.ReadLock(tx.ID, file, key)
		if err != nil {
			return err
		}
		n, _ := strconv.Atoi(string(cur))
		return from.FS.Update(tx.ID, file, key, []byte(strconv.Itoa(n+amount)))
	}
	if err := add("accounts"+suffix, accountKey(br, acct)); err != nil {
		return abort(err)
	}
	if err := add("tellers"+suffix, tellerKey(br, teller)); err != nil {
		return abort(err)
	}
	if err := add("branches"+suffix, branchKey(br)); err != nil {
		return abort(err)
	}
	hist := fmt.Sprintf("%s %d %d %d", accountKey(br, acct), teller, br, amount)
	if _, err := from.FS.Append(tx.ID, "history"+suffix, []byte(hist)); err != nil {
		return abort(err)
	}
	return tx.Commit()
}

// OneAbort runs a single voluntary-abort transaction from fromNode: it
// read-locks and updates a pseudo-randomly chosen account, then calls
// ABORT-TRANSACTION, exercising the backout path. The update never lands,
// so consistency invariants are unaffected.
func (b *Bank) OneAbort(fromNode string, rng *rand.Rand) error {
	cfg := &b.cfg
	br := rng.Intn(cfg.Branches)
	acct := rng.Intn(cfg.Accounts)
	from := b.sys.Node(fromNode)
	suffix := partSuffix(br % len(cfg.Placement))
	tx, err := from.Begin()
	if err != nil {
		return err
	}
	if cur, err := from.FS.ReadLock(tx.ID, "accounts"+suffix, accountKey(br, acct)); err == nil {
		n, _ := strconv.Atoi(string(cur))
		from.FS.Update(tx.ID, "accounts"+suffix, accountKey(br, acct), []byte(strconv.Itoa(n+1)))
	}
	return tx.Abort("voluntary abort (dst workload mix)")
}

func hasLocalBranch(cfg *BankConfig, node string) bool {
	for _, pl := range cfg.Placement {
		if pl.Node == node {
			return true
		}
	}
	return false
}

// VerifyConsistency checks the TP1 invariant: for each branch, the branch
// balance equals the sum of its tellers' balances, and history count
// matches committed transactions is not checked here (histories are
// per-partition). It returns an error describing the first violation.
func (b *Bank) VerifyConsistency() error {
	cfg := &b.cfg
	anyNode := b.sys.Node(cfg.Placement[0].Node)
	for br := 0; br < cfg.Branches; br++ {
		suffix := partSuffix(br % len(cfg.Placement))
		raw, err := anyNode.FS.Read("branches"+suffix, branchKey(br))
		if err != nil {
			return err
		}
		branchBal, _ := strconv.Atoi(string(raw))
		sum := 0
		for t := 0; t < cfg.Tellers; t++ {
			raw, err := anyNode.FS.Read("tellers"+suffix, tellerKey(br, t))
			if err != nil {
				return err
			}
			n, _ := strconv.Atoi(string(raw))
			sum += n
		}
		if sum != branchBal {
			return fmt.Errorf("workload: branch %d balance %d != teller sum %d (atomicity violated)", br, branchBal, sum)
		}
	}
	return nil
}

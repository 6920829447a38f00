package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
)

type opKind uint8

const (
	kindUpdate  opKind = iota // a committed update transaction
	kindInquiry               // a read-only inquiry outside any transaction
	kindAbort                 // the update transaction's work, then ABORT-TRANSACTION
	numKinds
)

var kindNames = [numKinds]string{"update", "inquiry", "abort"}

// op is one generated terminal input. What keys and amount mean is up to
// the workload (see workload.fill); the program under test sees only these.
type op struct {
	kind   opKind
	scan   bool // an inquiry that reads a range, not a point
	amount int32
	keys   []int32
}

// schedule[round][terminal] is the fixed list of ops that terminal issues
// in that round, one after the other, each waiting for its reply.
type schedule [][][]op

// genSchedule derives the whole run's inputs from one generator. The count
// of each op kind per terminal and round follows the workload's mix
// exactly; the seed decides only their order, keys and amounts, so the
// amount of work is the same for every seed.
func genSchedule(w *workload, seed int64, rounds, terminals, opsPerRound int) schedule {
	rng := rand.New(rand.NewSource(seed))
	perTerm := opsPerRound / terminals
	nInquiry := perTerm * w.mix[kindInquiry] / 100
	nAbort := perTerm * w.mix[kindAbort] / 100
	sched := make(schedule, rounds)
	for r := range sched {
		sched[r] = make([][]op, terminals)
		for t := range sched[r] {
			ops := make([]op, perTerm)
			keys := make([]int32, perTerm*w.keysPerOp)
			for i := range ops {
				switch {
				case i < nInquiry:
					ops[i].kind = kindInquiry
				case i < nInquiry+nAbort:
					ops[i].kind = kindAbort
				default:
					ops[i].kind = kindUpdate
				}
			}
			rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
			for i := range ops {
				ops[i].keys = keys[i*w.keysPerOp : (i+1)*w.keysPerOp : (i+1)*w.keysPerOp]
				w.fill(rng, &ops[i])
			}
			sched[r][t] = ops
		}
	}
	return sched
}

// hash digests every generated input; equal seeds must give equal hashes.
func (s schedule) hash() uint64 {
	h := fnv.New64a()
	var buf [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(buf[:], v)
		h.Write(buf[:])
	}
	for _, round := range s {
		for _, ops := range round {
			for _, o := range ops {
				scan := uint32(0)
				if o.scan {
					scan = 1
				}
				put(uint32(o.kind)<<1 | scan)
				put(uint32(o.amount))
				for _, k := range o.keys {
					put(uint32(k))
				}
			}
		}
	}
	return h.Sum64()
}

package paxoscommit

import (
	"encoding/binary"

	"encompass/internal/msg"
	"encompass/internal/txid"
)

// Acceptors serve participants on other nodes, so every acceptor message
// has a fixed wire tag in paxoscommit's block (32-47). A frame names the
// message by its tag, never by a Go package path, so frames keep their
// meaning across refactors.
func init() {
	msg.RegisterPayload(32,
		func(b []byte, r joinReq) []byte { return msg.AppendBytes(txid.AppendID(b, r.Tx), r.Instance) },
		func(r *msg.Reader) joinReq { return joinReq{Tx: txid.ReadID(r), Instance: r.Str()} })
	msg.RegisterPayload(33,
		func(b []byte, r voteReq) []byte {
			return append(msg.AppendBytes(txid.AppendID(b, r.Tx), r.Instance), r.Value)
		},
		func(r *msg.Reader) voteReq { return voteReq{Tx: txid.ReadID(r), Instance: r.Str(), Value: r.Byte()} })
	msg.RegisterPayload(34,
		func(b []byte, r prepareReq) []byte {
			return binary.AppendUvarint(msg.AppendBytes(txid.AppendID(b, r.Tx), r.Instance), r.Ballot)
		},
		func(r *msg.Reader) prepareReq {
			return prepareReq{Tx: txid.ReadID(r), Instance: r.Str(), Ballot: r.Uvarint()}
		})
	msg.RegisterPayload(35,
		func(b []byte, r prepareResp) []byte {
			b = msg.AppendBool(b, r.OK)
			b = binary.AppendUvarint(b, r.Promised)
			b = msg.AppendBool(b, r.HasAccepted)
			b = binary.AppendUvarint(b, r.AccBallot)
			return append(b, r.AccValue)
		},
		func(r *msg.Reader) prepareResp {
			return prepareResp{OK: r.Bool(), Promised: r.Uvarint(), HasAccepted: r.Bool(), AccBallot: r.Uvarint(), AccValue: r.Byte()}
		})
	msg.RegisterPayload(36,
		func(b []byte, r acceptReq) []byte {
			b = msg.AppendBytes(txid.AppendID(b, r.Tx), r.Instance)
			return append(binary.AppendUvarint(b, r.Ballot), r.Value)
		},
		func(r *msg.Reader) acceptReq {
			return acceptReq{Tx: txid.ReadID(r), Instance: r.Str(), Ballot: r.Uvarint(), Value: r.Byte()}
		})
	msg.RegisterPayload(37,
		func(b []byte, r acceptResp) []byte { return binary.AppendUvarint(msg.AppendBool(b, r.OK), r.Promised) },
		func(r *msg.Reader) acceptResp { return acceptResp{OK: r.Bool(), Promised: r.Uvarint()} })
	msg.RegisterPayload(38,
		func(b []byte, r learnReq) []byte { return txid.AppendID(b, r.Tx) },
		func(r *msg.Reader) learnReq { return learnReq{Tx: txid.ReadID(r)} })
	msg.RegisterPayload(39, appendLearnResp, readLearnResp)
	msg.RegisterPayload(40,
		func(b []byte, r outcomeReq) []byte { return append(txid.AppendID(b, r.Tx), r.Outcome) },
		func(r *msg.Reader) outcomeReq { return outcomeReq{Tx: txid.ReadID(r), Outcome: r.Byte()} })
}

func appendLearnResp(b []byte, r learnResp) []byte {
	b = binary.AppendVarint(b, int64(r.Slot))
	b = msg.AppendBool(b, r.HasOutcome)
	b = append(b, r.Outcome)
	b = binary.AppendUvarint(b, uint64(len(r.Instances)))
	for _, in := range r.Instances {
		b = msg.AppendBytes(b, in.Name)
		b = msg.AppendBool(b, in.HasAccepted)
		b = binary.AppendUvarint(b, in.Ballot)
		b = append(b, in.Value)
	}
	return b
}

func readLearnResp(r *msg.Reader) learnResp {
	l := learnResp{Slot: int(r.Varint()), HasOutcome: r.Bool(), Outcome: r.Byte()}
	if n := r.Len(); n > 0 {
		l.Instances = make([]instanceState, n)
		for i := range l.Instances {
			l.Instances[i] = instanceState{Name: r.Str(), HasAccepted: r.Bool(), Ballot: r.Uvarint(), Value: r.Byte()}
		}
	}
	return l
}

package mpi

import (
	"reflect"

	"repro/internal/machine"
)

// sizeOf returns the in-memory size of T.
func sizeOf[T any]() int {
	var zero T
	return int(reflect.TypeOf(zero).Size())
}

// allgather is one rank's program of Allgather: a send and a receive per
// round.
type allgather[T any] struct {
	me, ranks, elemSize int
	out                 [][]T
	// have lists the ranks whose blocks this rank holds, in the order it
	// got them. A message is the sender itself, tagged with how many
	// blocks it held at the time: that prefix of have, and the entries of
	// out it names, never change afterwards.
	have []int32
	// step is the round's distance; recv says the round's send is done.
	step int
	recv bool
}

func (a *allgather[T]) Next(_ *machine.Proc, st *Step) bool {
	if a.step >= a.ranks {
		return false
	}
	sendTo, recvFrom := a.me^a.step, a.me^a.step
	if a.ranks&(a.ranks-1) != 0 {
		sendTo = (a.me + a.ranks - a.step) % a.ranks
		recvFrom = (a.me + a.step) % a.ranks
	}
	if a.recv {
		*st = Step{Recv: true, Peer: recvFrom}
		a.step <<= 1
	} else {
		bytes := 0
		for _, r := range a.have {
			bytes += len(a.out[r]) * a.elemSize
		}
		*st = Step{Peer: sendTo, Tag: len(a.have), Payload: a, Bytes: bytes}
	}
	a.recv = !a.recv
	return true
}

func (a *allgather[T]) Deliver(_ *machine.Proc, msg *Message) {
	from := msg.Payload.(*allgather[T])
	for _, r := range from.have[:msg.Tag] {
		if a.out[r] == nil {
			a.out[r] = from.out[r]
			a.have = append(a.have, r)
		}
	}
}

// Allgather collects each rank's mine slice on every rank, returning
// out[r] = rank r's contribution. At power-of-two rank counts it uses
// recursive doubling (log2(p) rounds, XOR partners, doubling block
// counts each round); at other counts — reachable since the
// interconnect became pluggable and non-power-of-two machines
// constructible — XOR partners fall outside [0,p) and the exchange
// switches to a Bruck-style ring: each round every rank ships the
// blocks it holds to (me−step) mod p and receives from (me+step) mod p,
// which covers all p blocks in ⌈log2(p)⌉ rounds. Either way the cost
// emerges from the point-to-point model — including the staged engine's
// extra copies and the per-message overheads the paper blames for MPI's
// fixed costs on small data sets. All ranks must call it collectively.
func Allgather[T any](c *Comm, p *machine.Proc, mine []T) [][]T {
	ranks := c.Ranks()
	a := &allgather[T]{me: p.ID, ranks: ranks, elemSize: sizeOf[T](), step: 1,
		out: make([][]T, ranks), have: append(make([]int32, 0, ranks), int32(p.ID))}
	// Decouple from the caller's buffer, as MPI semantics require.
	own := make([]T, len(mine))
	copy(own, mine)
	a.out[a.me] = own
	if ranks > 1 {
		c.Run(p, a)
	}
	return a.out
}

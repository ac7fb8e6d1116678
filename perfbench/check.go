package main

import (
	"fmt"

	"repro/internal/wire"
)

// valueSet fingerprints the multiset of counter values one caller was
// handed: their count, their sum and the sum of a bijective 64-bit mix
// of each. Recording is O(1) and allocation-free, so checking costs the
// run no memory; checkDense merges the callers' fingerprints.
type valueSet struct {
	n, sum, mixed uint64
}

func (s *valueSet) add(v int64) {
	s.n++
	s.sum += uint64(v)
	s.mixed += mix64(uint64(v))
}

// mix64 is the SplitMix64 finalizer, a bijection on uint64: a value
// handed out twice and another never handed out change the mixed sum
// unless the two mix to the same word, which a bijection rules out.
func mix64(x uint64) uint64 {
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// checkDense verifies the paper's counting property on a run's output:
// the values handed out across all sets are exactly [0, n), so no value
// was handed out twice and none was skipped.
func checkDense(sets []*valueSet, n int64) error {
	var got, want valueSet
	for _, s := range sets {
		got.n += s.n
		got.sum += s.sum
		got.mixed += s.mixed
	}
	for v := int64(0); v < n; v++ {
		want.add(v)
	}
	switch {
	case got.n != want.n:
		return fmt.Errorf("counting property: %d values handed out for %d tokens", got.n, n)
	case got != want:
		return fmt.Errorf("counting property: the %d values handed out are not exactly [0, %d): some value was handed out twice and another never", n, n)
	}
	return nil
}

// checkRead verifies that a quiescent Read reconciles with what the
// run did: tokens minus antitokens.
func checkRead(read, tokens, antitokens int64) error {
	if want := tokens - antitokens; read != want {
		return fmt.Errorf("quiescent read %d, want tokens %d - antitokens %d = %d", read, tokens, antitokens, want)
	}
	return nil
}

// maxFramesPerPacket is the most mutating frames one datagram can
// carry: the smallest v2 mutating frame is op(1) id(4) seq(8).
const maxFramesPerPacket = (wire.MaxDatagram - wire.PacketOverhead) / 13

// checkReplays verifies that every frame the shards replayed was sent
// twice by the client's retransmit timer. The benchmark injects no
// faults, so on a stream transport (no retransmits) replays must be 0;
// a replay no retransmitted datagram accounts for means the protocol
// sent one frame twice.
func checkReplays(replays, retransmits int64) error {
	if replays > retransmits*maxFramesPerPacket {
		return fmt.Errorf("%d dedup replays without injected faults, but only %d retransmitted datagrams", replays, retransmits)
	}
	return nil
}

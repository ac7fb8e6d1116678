package xport_test

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/bitonic"
	"repro/internal/core"
	"repro/internal/inproc"
	"repro/internal/network"
	"repro/internal/udpnet"
	"repro/internal/wire"
	"repro/internal/xport"
)

// The single-caller flight path allocates nothing in steady state: no
// per-flight sequence bookkeeping, no dedup map churn on the shards,
// no histogram or flight-ring garbage. One Inc is one flight of
// Depth+1 frames; one IncBatch(64) is one layer-ordered pipeline.
func TestCounterZeroAllocs(t *testing.T) {
	topo, err := core.New(8, 24)
	if err != nil {
		t.Fatal(err)
	}
	cl, stop, err := inproc.StartCluster(topo, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	ctr := cl.NewCounterPool(1)
	defer ctr.Close()
	dst := make([]int64, 0, 64)
	// Warm up: dial the pooled session, size the walk scratch, and let
	// each shard allocate this client's dedup ring.
	for pid := 0; pid < topo.InWidth(); pid++ {
		if _, err := ctr.Inc(pid); err != nil {
			t.Fatal(err)
		}
	}
	if dst, err = ctr.IncBatch(0, 64, dst[:0]); err != nil {
		t.Fatal(err)
	}
	pid := 0
	if allocs := testing.AllocsPerRun(500, func() {
		pid++
		if _, err := ctr.Inc(pid); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Counter.Inc: %.2f allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		pid++
		if dst, err = ctr.IncBatch(pid, 64, dst[:0]); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Counter.IncBatch(64): %.2f allocs/op, want 0", allocs)
	}
}

// blockTopologies builds every internal/core constructor at a few
// widths — counting networks or not, the frame bound is a property of
// depth, size and output width alone.
func blockTopologies(t *testing.T, widths ...int) []*network.Network {
	t.Helper()
	var nets []*network.Network
	for _, w := range widths {
		lg := 0
		for x := w; x > 1; x >>= 1 {
			lg++
		}
		tt := w * lg
		for _, build := range []func() (*network.Network, error){
			func() (*network.Network, error) { return core.New(w, tt) },
			func() (*network.Network, error) { return core.New(w, w) },
			func() (*network.Network, error) { return core.NewLadder(w) },
			func() (*network.Network, error) { return core.NewPrefix(w, tt) },
			func() (*network.Network, error) { return core.NewPrefix22(w) },
			func() (*network.Network, error) { return core.NewWithBitonicMerger(w, 2*w, bitonic.BuildMerger) },
		} {
			n, err := build()
			if err != nil {
				t.Fatal(err)
			}
			nets = append(nets, n)
		}
	}
	return nets
}

var blockKs = []int64{1, 2, 8, 64, 1000}

// countingExchanger counts the mutating frames a walk sends through it.
type countingExchanger struct {
	x    xport.Exchanger
	muts uint64
}

func (c *countingExchanger) Exchange(shard int, op byte, id int32, n int64) (int64, error) {
	if op != wire.OpRead {
		c.muts++
	}
	return c.x.Exchange(shard, op, id, n)
}

// walkFrames runs one walk on a fresh 2-shard in-memory deployment of
// topo — fresh, so the balancer states, and with them the frames the
// walk sends, are the same on every call — through session set-up
// `prep`, and returns the mutating frames it sent and the walk's error.
func walkFrames(t *testing.T, topo *network.Network, k int64, anti bool, prep func(*inproc.Session)) (uint64, error) {
	t.Helper()
	cl, stop, err := inproc.StartCluster(topo, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	sess, err := cl.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	prep(sess)
	cx := &countingExchanger{x: sess}
	w := xport.NewWalk(topo, 2)
	if k == 1 && !anti {
		_, err = w.Inc(cx, 0)
	} else {
		_, err = w.Batch(cx, 0, k, anti, nil)
	}
	return cx.muts, err
}

// Every walk draws no more sequence numbers than the block its flight
// reserves, on every constructor, width and batch size — so a retry can
// replay the block by arithmetic and never stray into a neighbouring
// flight's numbers — and a walk that would overrun its block fails with
// ErrSeqBlockExhausted instead of panicking or reusing a number. Both
// the shared walk (tcp, inproc) and udpnet's layer-packed walk, serial
// and pipelined, are held to the bound.
func TestSeqBlockBound(t *testing.T) {
	var src atomic.Uint64
	noBlock := func(*inproc.Session) {}
	for _, topo := range blockTopologies(t, 2, 4, 8, 16) {
		if got := xport.SeqSpan(topo, 1); got != uint64(topo.Depth()+1) {
			t.Fatalf("%s: single-token span %d, want Depth+1 = %d", topo.Name(), got, topo.Depth()+1)
		}
		for _, k := range blockKs {
			for _, anti := range []bool{false, true} {
				span := xport.SeqSpan(topo, k)
				name := fmt.Sprintf("%s k=%d anti=%v", topo.Name(), k, anti)
				used, err := walkFrames(t, topo, k, anti, noBlock)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if used > span {
					t.Fatalf("%s: walk sent %d mutating frames, block holds %d", name, used, span)
				}
				// The same walk drawing from a block: a block of exactly
				// the frames it sends suffices, one fewer fails cleanly.
				if _, err := walkFrames(t, topo, k, anti, func(s *inproc.Session) {
					s.SetSeqBlock(wire.ReserveSeqs(&src, used))
				}); err != nil {
					t.Fatalf("%s: walk from a %d-seq block: %v", name, used, err)
				}
				if _, err := walkFrames(t, topo, k, anti, func(s *inproc.Session) {
					s.SetSeqBlock(wire.ReserveSeqs(&src, used-1))
				}); !errors.Is(err, wire.ErrSeqBlockExhausted) {
					t.Fatalf("%s: walk from a %d-seq block: err %v, want ErrSeqBlockExhausted", name, used-1, err)
				}
			}
		}
	}

	for _, topo := range blockTopologies(t, 2, 4, 8) {
		addrs := make([]string, 2)
		for i := range addrs {
			sh, err := udpnet.StartShard("127.0.0.1:0", topo, i, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer sh.Close()
			addrs[i] = sh.Addr()
		}
		cl := udpnet.NewCluster(topo, addrs)
		for _, depth := range []int{1, 4} {
			sess, err := cl.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			sess.SetPipeline(depth)
			for _, k := range blockKs {
				for _, anti := range []bool{false, true} {
					name := fmt.Sprintf("udp depth=%d %s k=%d anti=%v", depth, topo.Name(), k, anti)
					span := xport.SeqSpan(topo, k)
					rpcs0, retrans0 := sess.RPCs(), sess.Retransmits()
					sess.SetSeqBlock(wire.ReserveSeqs(&src, span))
					var err error
					if k == 1 && !anti {
						_, err = sess.Inc(0)
					} else {
						_, err = sess.Batch(0, k, anti, nil)
					}
					if err != nil {
						t.Fatalf("%s: walk from its %d-seq block: %v", name, span, err)
					}
					if sess.Retransmits() == retrans0 {
						if sent := uint64(sess.RPCs() - rpcs0); sent > span {
							t.Fatalf("%s: walk sent %d frames, block holds %d", name, sent, span)
						}
					}
					// Every walk here sends at least a balancer frame and
					// a cell frame, so a one-seq block runs out mid-walk:
					// the walk fails before the frame it cannot number.
					sess.SetSeqBlock(wire.ReserveSeqs(&src, 1))
					if k == 1 && !anti {
						_, err = sess.Inc(0)
					} else {
						_, err = sess.Batch(0, k, anti, nil)
					}
					if !errors.Is(err, wire.ErrSeqBlockExhausted) {
						t.Fatalf("%s: walk from a one-seq block: err %v, want ErrSeqBlockExhausted", name, err)
					}
				}
			}
			sess.SetSeqBlock(wire.SeqBlock{})
		}
	}
}

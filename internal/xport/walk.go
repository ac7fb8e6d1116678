package xport

import (
	"repro/internal/balancer"
	"repro/internal/network"
	"repro/internal/wire"
)

// Exchanger is one request/response round trip on a shard: the only
// primitive a frame-per-round-trip transport (TCP, inproc) must supply
// for Walk to implement the whole client-side protocol. For mutating
// ops the implementation builds the v1 or seq-numbered v2 frame from
// the op/id/n triple (see tcpnet.Session.Exchange); OpRead is
// non-mutating and carries no sequence number.
type Exchanger interface {
	Exchange(shard int, op byte, id int32, n int64) (int64, error)
}

// Walk is the shared client-side protocol walker for transports that
// spend one round trip per frame: the single-token path, the batched
// topological pipeline, and the exact-count read side, with the split
// arithmetic and CELL id packing (id = wire | stride<<16) implemented
// once. A Walk belongs to one session (its scratch is reused across
// calls, so it is single-goroutine like the session itself); datagram
// transports pack many frames per packet and keep their own layer walk.
type Walk struct {
	net    *network.Network
	shards int
	stride int64

	// Batch walk scratch, reused across calls.
	pending []int64
	tally   []int64
	dist    []int64
}

// SeqSpan bounds the mutating frames one k-token walk of n sends, and so
// sizes a flight's sequence block: a token crosses at most Depth
// balancers, so k tokens touch at most min(Size, k·Depth) of them (one
// STEP or STEPN frame each), and land on at most min(OutWidth, k) exit
// cells (one CELL or CELLN frame each). A single-token Inc or Dec
// reserves exactly Depth+1; a read reserves nothing.
func SeqSpan(n *network.Network, k int64) uint64 {
	if k <= 0 {
		return 0
	}
	steps := int64(n.Size())
	if k < steps {
		steps = min(steps, k*int64(n.Depth()))
	}
	return uint64(steps + min(int64(n.OutWidth()), k))
}

// NewWalk builds a walker over the topology partitioned across `shards`
// servers (shard i owns nodes and cells ≡ i mod shards).
func NewWalk(n *network.Network, shards int) *Walk {
	return &Walk{net: n, shards: shards, stride: int64(n.OutWidth())}
}

// Inc shepherds one token through the network and returns its counter
// value: depth round trips for the balancer crossings plus one for the
// exit cell. A retried Inc walks the identical path — the dedup windows
// replay the original ports for already-applied sequences.
func (w *Walk) Inc(x Exchanger, pid int) (int64, error) {
	in := pid % w.net.InWidth()
	node, port := w.net.InputDest(in)
	for node >= 0 {
		p, err := x.Exchange(node%w.shards, wire.OpStep, int32(node), 0)
		if err != nil {
			return 0, err
		}
		node, port = w.net.Dest(node, int(p))
	}
	// port now names the exit wire; fetch the cell value with the stride
	// packed into the id's upper bits.
	return x.Exchange(port%w.shards, wire.OpCell, int32(port)|int32(w.stride)<<16, 0)
}

// Batch walks the topology in topological order exactly like
// network.TraverseBatch, but every balancer transition is one STEPN round
// trip to the owning shard; the split arithmetic runs client-side from
// the replied first index and the known initial states. The walk is
// deterministic in (in, k, anti), so a retried window re-sends the
// identical frame sequence and the dedup windows make it exactly-once.
func (w *Walk) Batch(x Exchanger, in int, k int64, anti bool, dst []int64) ([]int64, error) {
	n := w.net
	if w.pending == nil {
		w.pending = make([]int64, n.Size())
		w.tally = make([]int64, n.OutWidth())
	}
	pending, tally := w.pending, w.tally
	clear(tally)
	first := n.Size()
	nd, port := n.InputDest(in)
	if nd < 0 {
		tally[port] += k
	} else {
		pending[nd] = k
		first = nd
	}
	for id := first; id < n.Size(); id++ {
		c := pending[id]
		if c == 0 {
			continue
		}
		pending[id] = 0
		node := n.Node(id)
		q := node.Out()
		sendN := c
		if anti {
			sendN = -c
		}
		start, err := x.Exchange(id%w.shards, wire.OpStepN, int32(id), sendN)
		if err != nil {
			clear(pending) // leave the scratch reusable
			return dst, err
		}
		if cap(w.dist) < q {
			w.dist = make([]int64, q)
		}
		counts := balancer.DistributeInto(node.Balancer().Init()+start, c, w.dist[:q])
		for p, cnt := range counts {
			if cnt == 0 {
				continue
			}
			dnd, dport := n.Dest(id, p)
			if dnd < 0 {
				tally[dport] += cnt
			} else {
				pending[dnd] += cnt
			}
		}
	}
	stride := w.stride
	for wireOut, cnt := range tally {
		if cnt == 0 {
			continue
		}
		sendN := cnt
		if anti {
			sendN = -cnt
		}
		end, err := x.Exchange(wireOut%w.shards, wire.OpCellN, int32(wireOut)|int32(stride)<<16, sendN)
		if err != nil {
			return dst, err
		}
		if anti {
			for v := end + stride*(cnt-1); v >= end; v -= stride {
				dst = append(dst, v)
			}
		} else {
			for v := end - stride*cnt; v < end; v += stride {
				dst = append(dst, v)
			}
		}
	}
	return dst, nil
}

// ReadCell returns exit cell ID cw's current value without modifying it
// (op READ) — the building block of deployment-wide exact-count reads.
func (w *Walk) ReadCell(x Exchanger, cw int) (int64, error) {
	return x.Exchange(cw%w.shards, wire.OpRead, int32(cw), 0)
}

// Read sums the exit cells into the deployment's net count (increments
// minus decrements), one READ round trip per wire. Only meaningful while
// the deployment is quiescent, like counter.Network.Issued.
func (w *Walk) Read(x Exchanger) (int64, error) {
	var total int64
	for cw := 0; cw < w.net.OutWidth(); cw++ {
		v, err := w.ReadCell(x, cw)
		if err != nil {
			return 0, err
		}
		total += (v - int64(cw)) / w.stride
	}
	return total, nil
}

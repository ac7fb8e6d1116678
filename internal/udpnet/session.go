package udpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/balancer"
	"repro/internal/network"
	"repro/internal/wire"
)

// Default retransmit budget: an exchange sends its request packet up to
// DefaultRetransmitAttempts times within DefaultRetransmitBudget of the
// first send, the per-attempt listening window growing along
// DefaultRetransmitTimer. Loss, duplication and reordering inside the
// budget are absorbed silently; only a shard unreachable for the whole
// budget surfaces an error.
const (
	DefaultRetransmitAttempts = 8
	DefaultRetransmitBudget   = 2 * time.Second
)

// DefaultRetransmitTimer is the jittered exponential retransmit
// schedule: the attempt-n response window is Delay(n) in
// [7.5ms, 15ms] doubling up to 200ms. Jitter keeps a fleet of clients
// that lost the same shard from retransmitting in lockstep.
var DefaultRetransmitTimer = wire.Backoff{Base: 15 * time.Millisecond, Max: 200 * time.Millisecond}

// Cluster is a client-side view of a UDP-sharded deployment: the
// topology plus shard addresses (shard i owns nodes and cells ≡ i mod
// len(addrs), as in tcpnet).
type Cluster struct {
	net      *network.Network
	addrs    []string
	stride   int64
	dialWrap func(net.Conn) net.Conn

	mu       sync.Mutex // guards policy, timer and pipeline against racing sessions
	policy   wire.RetryPolicy
	timer    wire.Backoff
	pipeline int
}

// NewCluster wires a topology to its shard addresses with the default
// retransmit policy.
func NewCluster(n *network.Network, addrs []string) *Cluster {
	return &Cluster{
		net:      n,
		addrs:    addrs,
		stride:   int64(n.OutWidth()),
		policy:   wire.RetryPolicy{Attempts: DefaultRetransmitAttempts, Budget: DefaultRetransmitBudget},
		timer:    DefaultRetransmitTimer,
		pipeline: 1,
	}
}

// SetDialWrapper installs a hook wrapping every socket a new session
// opens — the packet-path fault-injection point (see Faults) the chaos
// tests and countbench's E28 loss sweep use to drop, duplicate, reorder
// and delay datagrams deterministically. Pass nil to clear. Not safe to
// change while sessions are being created.
func (c *Cluster) SetDialWrapper(w func(net.Conn) net.Conn) { c.dialWrap = w }

// SetRetransmitPolicy bounds the per-exchange retransmit path of
// sessions created after the call: at most policy.Attempts sends of a
// request packet within policy.Budget of the first (Budget <= 0 removes
// the time bound), listening timer.Delay(n) after send n. Zero-valued
// timer fields take the wire defaults.
func (c *Cluster) SetRetransmitPolicy(policy wire.RetryPolicy, timer wire.Backoff) {
	if policy.Attempts < 1 {
		policy.Attempts = 1
	}
	c.mu.Lock()
	c.policy = policy
	c.timer = timer
	c.mu.Unlock()
}

// SetPipeline bounds how many request datagrams a session socket keeps
// outstanding at once for sessions created after the call. depth <= 1
// is stop-and-wait — the exact serial path every earlier E-series
// number was taken at; depth > 1 turns each socket into a bounded
// pipeline (see pipeline.go) that sends up to depth packets before the
// first reply and lets a layer fan out to every shard concurrently.
// The frames and their (client, seq) pairs are identical either way,
// so the exactly-once guarantee is untouched — the shard's per-client
// dedup window is thousands of frames deep against the few hundred a
// full window can hold.
func (c *Cluster) SetPipeline(depth int) {
	if depth < 1 {
		depth = 1
	}
	c.mu.Lock()
	c.pipeline = depth
	c.mu.Unlock()
}

// Pipeline returns the configured per-socket window depth.
func (c *Cluster) Pipeline() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pipeline
}

// Hops returns the number of frame round trips one single-token Inc
// costs — depth + 1, identical to tcpnet (the transports speak the same
// frames; UDP just packs more of them per datagram on batched paths).
func (c *Cluster) Hops() int { return c.net.Depth() + 1 }

// Session is a single-goroutine client: one connected UDP socket per
// shard. Every session speaks protocol v2 — each request packet opens
// with HELLO binding it to the session owner's client id and every
// mutating frame is seq-numbered — because over a lossy transport the
// retransmit path is not optional, and only deduplicated frames can be
// retransmitted safely.
type Session struct {
	c       *Cluster
	client  uint64
	conns   []net.Conn
	policy  wire.RetryPolicy
	timer   wire.Backoff
	rpcs    atomic.Int64   // request frames sent (retransmits included)
	packets atomic.Int64   // request datagrams sent, first sends and retransmits
	retrans atomic.Int64   // of which retransmits
	seqs    wire.SeqSource // the flight's sequence block, or the session's own numbering
	reqid   uint64         // request-id source (sessions are single-goroutine)

	// Pipelining state: the per-socket window depth (1 = stop-and-wait,
	// the serial path below), the lazily created per-socket pipes, and
	// the in-flight gauge the control plane reads.
	depth       int
	pipes       []*pipe
	outstanding atomic.Int64

	// Packet and batch walk scratch, reused across calls.
	sbuf    []byte
	rbuf    []byte
	frames  []wire.Frame
	fpkt    []wire.Frame
	ids     []int32
	vals    []int64
	pending []int64
	tally   []int64
	dist    []int64

	// Pipelined fan-out scratch: handles per layer, the handle-range and
	// frame-range cuts per shard, and per-shard id lists that must
	// outlive the submit phase (these survive until await).
	hnds  []*handle
	shCut []int
	frCut []int
	shIDs [][]int32
}

// NewSession opens one socket per shard under a fresh client id.
func (c *Cluster) NewSession() (*Session, error) {
	return c.newSession(wire.NextClientID())
}

func (c *Cluster) newSession(client uint64) (*Session, error) {
	c.mu.Lock()
	policy, timer, depth := c.policy, c.timer, c.pipeline
	c.mu.Unlock()
	s := &Session{
		c:      c,
		client: client,
		conns:  make([]net.Conn, len(c.addrs)),
		policy: policy,
		timer:  timer,
		depth:  depth,
		rbuf:   make([]byte, wire.MaxDatagram),
	}
	for i, addr := range c.addrs {
		conn, err := net.Dial("udp", addr)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("udpnet: dial shard %d: %w", i, err)
		}
		if c.dialWrap != nil {
			conn = c.dialWrap(conn)
		}
		s.conns[i] = conn
	}
	return s, nil
}

// Close drops the session's sockets and reaps the pipe readers a
// pipelined session started; any packet still outstanding completes
// with the socket's close error.
func (s *Session) Close() {
	for _, p := range s.pipes {
		if p != nil {
			p.stop()
		}
	}
	for _, conn := range s.conns {
		if conn != nil {
			conn.Close()
		}
	}
	for _, p := range s.pipes {
		if p != nil {
			p.wg.Wait()
		}
	}
}

// SetPipeline sets this session's per-socket window depth. Only valid
// before the session's first exchange (a session is single-goroutine
// and so is this switch); pooled sessions inherit the cluster's depth
// at dial instead.
func (s *Session) SetPipeline(depth int) {
	if depth < 1 {
		depth = 1
	}
	s.depth = depth
}

// pipe lazily creates the pipelined state of one socket.
func (s *Session) pipe(shard int) *pipe {
	if s.pipes == nil {
		s.pipes = make([]*pipe, len(s.conns))
	}
	p := s.pipes[shard]
	if p == nil {
		p = newPipe(s, shard)
		s.pipes[shard] = p
	}
	return p
}

// RPCs returns the number of request frames this session has sent,
// retransmitted copies included — the same per-frame cost unit as
// tcpnet.Session.RPCs, so the transports' E25-E28 columns compare
// directly. At zero loss it equals the tcpnet bill exactly.
func (s *Session) RPCs() int64 { return s.rpcs.Load() }

// Packets returns the request datagrams sent (first sends plus
// retransmits) — the link-level cost a datagram transport actually
// pays; batched walks pack many frames into each.
func (s *Session) Packets() int64 { return s.packets.Load() }

// Retransmits returns how many of those datagrams were retransmissions.
func (s *Session) Retransmits() int64 { return s.retrans.Load() }

// Outstanding returns the request datagrams currently in flight on the
// session's pipelined sockets (implements xport.PacketSession).
func (s *Session) Outstanding() int64 { return s.outstanding.Load() }

// SetSeqBlock points the session's mutating-frame sequence source at a
// flight's reserved block (the zero block restores the session's own
// counter) — the xport Counter calls it around every flight attempt so
// retries re-send identical (client, seq) pairs.
func (s *Session) SetSeqBlock(b wire.SeqBlock) { s.seqs.SetBlock(b) }

// Healthy implements the xport pool's checkout probe. A UDP socket has
// no peer state to go stale — failure lives entirely in the exchange
// retransmit path — so an idle session is always healthy.
func (s *Session) Healthy() bool { return true }

// mut builds one seq-numbered v2 mutating frame from its v1 op, the
// number drawn from the flight's block.
func (s *Session) mut(op byte, id int32, n int64) (wire.Frame, error) {
	seq, err := s.seqs.Next()
	return wire.Frame{Op: wire.V2Op(op), ID: id, Seq: seq, N: n}, err
}

// exchange performs one datagram round trip against a shard: a packet
// carrying HELLO plus the given frames, retransmitted under the
// session's policy until the matching response (by request id) arrives,
// its per-frame values appended to dst. Stale responses — to earlier
// exchanges, or duplicate replies to retransmitted ones — are discarded
// by id; the request id makes matching exact however the network
// reorders.
func (s *Session) exchange(shard int, frames []wire.Frame, dst []int64) ([]int64, error) {
	if s.depth > 1 {
		p := s.pipe(shard)
		h := p.submit(frames)
		p.flush()
		return p.await(h, dst)
	}
	s.reqid++
	s.fpkt = append(s.fpkt[:0], wire.Frame{Op: wire.OpHello, Client: s.client})
	s.fpkt = append(s.fpkt, frames...)
	s.sbuf = wire.AppendPacket(s.sbuf[:0], s.reqid, s.fpkt)
	want := len(frames)
	conn := s.conns[shard]

	var deadline time.Time
	if s.policy.Budget > 0 {
		deadline = time.Now().Add(s.policy.Budget)
	}
	attempts := s.policy.Attempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			s.retrans.Add(1)
		}
		s.packets.Add(1)
		s.rpcs.Add(int64(want))
		if _, err := conn.Write(s.sbuf); err != nil {
			if errors.Is(err, net.ErrClosed) {
				return dst, err
			}
			lastErr = err // transient (e.g. surfaced ICMP): keep trying
		}
		wait := time.Now().Add(s.timer.Delay(attempt))
		if !deadline.IsZero() && wait.After(deadline) {
			wait = deadline
		}
		conn.SetReadDeadline(wait)
		for {
			n, err := conn.Read(s.rbuf)
			if err != nil {
				if errors.Is(err, net.ErrClosed) {
					return dst, err
				}
				lastErr = err
				break // timeout or transient: retransmit
			}
			if n < wire.PacketOverhead ||
				binary.BigEndian.Uint64(s.rbuf[:wire.PacketOverhead]) != s.reqid {
				continue // stale or foreign datagram
			}
			if n != wire.PacketOverhead+8*want {
				continue // corrupt: not a complete reply to this request
			}
			for i := 0; i < want; i++ {
				off := wire.PacketOverhead + 8*i
				dst = append(dst, int64(binary.BigEndian.Uint64(s.rbuf[off:off+8])))
			}
			return dst, nil
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			break
		}
	}
	return dst, fmt.Errorf("udpnet: shard %d: no response inside the retransmit budget: %w",
		shard, lastErr)
}

// chunkEnd returns the end of the datagram-sized chunk starting at
// start: the longest prefix fitting both the wire.MaxDatagram request
// budget and the 8-bytes-per-frame response budget. Serial and
// pipelined exchanges share it, so a depth switch never changes how
// frames pack into packets.
func chunkEnd(frames []wire.Frame, start int) int {
	reqBytes := wire.PacketOverhead + wire.FrameLen(wire.OpHello)
	respBytes := wire.PacketOverhead
	end := start
	for end < len(frames) {
		fl := wire.FrameLen(frames[end].Op)
		if end > start && (reqBytes+fl > wire.MaxDatagram || respBytes+8 > wire.MaxDatagram) {
			break
		}
		reqBytes += fl
		respBytes += 8
		end++
	}
	return end
}

// exchangeChunked splits a frame group into datagrams under the
// wire.MaxDatagram budget — bounding both the request bytes and the
// 8-bytes-per-frame response — and exchanges each chunk in turn. A
// pipelined session submits every chunk up front (the window keeps
// depth of them outstanding) and then collects the replies in order.
func (s *Session) exchangeChunked(shard int, frames []wire.Frame, dst []int64) ([]int64, error) {
	if s.depth > 1 {
		p := s.pipe(shard)
		h0 := len(s.hnds)
		s.hnds = s.submitChunks(p, frames, s.hnds)
		p.flush()
		var firstErr error
		for _, h := range s.hnds[h0:] {
			var err error
			dst, err = p.await(h, dst)
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		s.hnds = s.hnds[:h0]
		return dst, firstErr
	}
	start := 0
	for start < len(frames) {
		end := chunkEnd(frames, start)
		var err error
		dst, err = s.exchange(shard, frames[start:end], dst)
		if err != nil {
			return dst, err
		}
		start = end
	}
	return dst, nil
}

// submitChunks submits a frame group to a pipe chunk by chunk (same
// packet boundaries as the serial path) and appends the handles.
func (s *Session) submitChunks(p *pipe, frames []wire.Frame, hnds []*handle) []*handle {
	start := 0
	for start < len(frames) {
		end := chunkEnd(frames, start)
		hnds = append(hnds, p.submit(frames[start:end]))
		start = end
	}
	return hnds
}

// Inc shepherds one token through the distributed network and returns
// its counter value: depth single-frame exchanges for the balancer
// crossings plus one for the exit cell, each reply steering the next
// hop. A retried Inc walks the identical path — the dedup windows
// replay the original ports for already-applied sequences.
func (s *Session) Inc(pid int) (int64, error) {
	shards := len(s.c.addrs)
	in := pid % s.c.net.InWidth()
	node, port := s.c.net.InputDest(in)
	var one [1]wire.Frame
	for node >= 0 {
		f, err := s.mut(wire.OpStep, int32(node), 0)
		if err != nil {
			return 0, err
		}
		one[0] = f
		vals, err := s.exchange(node%shards, one[:], s.vals[:0])
		s.vals = vals[:0]
		if err != nil {
			return 0, err
		}
		node, port = s.c.net.Dest(node, int(vals[0]))
	}
	f, err := s.mut(wire.OpCell, int32(port)|int32(s.c.stride)<<16, 0)
	if err != nil {
		return 0, err
	}
	one[0] = f
	vals, err := s.exchange(port%shards, one[:], s.vals[:0])
	s.vals = vals[:0]
	if err != nil {
		return 0, err
	}
	return vals[0], nil
}

// Dec shepherds one antitoken through the network (one-element
// DecBatch).
func (s *Session) Dec(pid int) (int64, error) {
	vals, err := s.DecBatch(pid, 1, nil)
	if err != nil {
		return 0, err
	}
	return vals[0], nil
}

// IncBatch performs k Fetch&Increment operations as one batched
// pipeline entering on wire pid mod w, appending the k claimed values
// to dst: one STEPN frame per balancer touched, one CELLN per exit wire
// touched, the frames packed into one datagram per (layer, shard) plus
// one per shard for the cell phase. k <= 0 sends nothing.
func (s *Session) IncBatch(pid, k int, dst []int64) ([]int64, error) {
	if k <= 0 {
		return dst, nil
	}
	return s.batch(pid%s.c.net.InWidth(), int64(k), false, dst)
}

// DecBatch is IncBatch for Fetch&Decrement: the batched frames carry a
// negative count and the k revoked values come back, newest-issued
// first per exit cell.
func (s *Session) DecBatch(pid, k int, dst []int64) ([]int64, error) {
	if k <= 0 {
		return dst, nil
	}
	return s.batch(pid%s.c.net.InWidth(), int64(k), true, dst)
}

// batch walks the topology layer by layer. Within a layer no balancer
// feeds another, so every pending group in it is final the moment the
// previous layer finished — the session packs the layer's STEPN frames
// by owning shard into as few datagrams as the MTU budget allows, folds
// the split arithmetic locally from the replied first indices (it knows
// the wiring and initial states, exactly like tcpnet), and finishes
// with the exit-cell CELLN frames packed per shard. The walk is
// deterministic in (wire, k, anti), so a retried flight re-sends the
// identical frame sequence and the dedup windows make it exactly-once.
func (s *Session) batch(in int, k int64, anti bool, dst []int64) ([]int64, error) {
	return s.Batch(in, k, anti, dst)
}

// Batch is the exported spelling of the layer-packed batch walk
// (implements xport.Session); `in` is the input wire, already reduced
// mod InWidth.
func (s *Session) Batch(in int, k int64, anti bool, dst []int64) ([]int64, error) {
	n := s.c.net
	shards := len(s.c.addrs)
	if s.pending == nil {
		s.pending = make([]int64, n.Size())
		s.tally = make([]int64, n.OutWidth())
	}
	pending, tally := s.pending, s.tally
	clear(tally)
	nd, port := n.InputDest(in)
	if nd < 0 {
		tally[port] += k
	} else {
		pending[nd] = k
	}
	for _, layer := range n.Layers() {
		if s.depth > 1 {
			// Pipelined fan-out: submit every shard's frames for this
			// layer before awaiting any reply — the layer costs one
			// round trip across ALL shards instead of one per shard.
			if err := s.stepLayerPipelined(layer, shards, pending, tally, anti); err != nil {
				clear(pending) // leave the scratch reusable
				return dst, err
			}
			continue
		}
		for shard := 0; shard < shards; shard++ {
			s.frames = s.frames[:0]
			s.ids = s.ids[:0]
			for _, id := range layer {
				if int(id)%shards != shard || pending[id] == 0 {
					continue
				}
				sendN := pending[id]
				if anti {
					sendN = -sendN
				}
				f, err := s.mut(wire.OpStepN, id, sendN)
				if err != nil {
					clear(pending) // leave the scratch reusable
					return dst, err
				}
				s.frames = append(s.frames, f)
				s.ids = append(s.ids, id)
			}
			if len(s.frames) == 0 {
				continue
			}
			vals, err := s.exchangeChunked(shard, s.frames, s.vals[:0])
			s.vals = vals
			if err != nil {
				clear(pending) // leave the scratch reusable
				return dst, err
			}
			s.applyStep(s.ids, vals, pending, tally)
		}
	}
	if s.depth > 1 {
		return s.cellsPipelined(shards, tally, anti, dst)
	}
	stride := s.c.stride
	for shard := 0; shard < shards; shard++ {
		s.frames = s.frames[:0]
		s.ids = s.ids[:0]
		for wireOut, cnt := range tally {
			if cnt == 0 || wireOut%shards != shard {
				continue
			}
			sendN := cnt
			if anti {
				sendN = -cnt
			}
			f, err := s.mut(wire.OpCellN, int32(wireOut)|int32(stride)<<16, sendN)
			if err != nil {
				return dst, err
			}
			s.frames = append(s.frames, f)
			s.ids = append(s.ids, int32(wireOut))
		}
		if len(s.frames) == 0 {
			continue
		}
		vals, err := s.exchangeChunked(shard, s.frames, s.vals[:0])
		s.vals = vals
		if err != nil {
			return dst, err
		}
		dst = s.applyCells(s.ids, vals, tally, anti, dst)
	}
	return dst, nil
}

// applyStep folds one shard's STEPN replies back into the walk: each
// first transition index distributes that balancer's pending group
// across its output ports, landing on next-layer balancers or the exit
// tally. Shared by the serial and pipelined paths so a depth switch
// cannot change the arithmetic.
func (s *Session) applyStep(ids []int32, vals []int64, pending, tally []int64) {
	n := s.c.net
	for i, id := range ids {
		c := pending[id]
		pending[id] = 0
		node := n.Node(int(id))
		q := node.Out()
		if cap(s.dist) < q {
			s.dist = make([]int64, q)
		}
		counts := balancer.DistributeInto(node.Balancer().Init()+vals[i], c, s.dist[:q])
		for p, cnt := range counts {
			if cnt == 0 {
				continue
			}
			dnd, dport := n.Dest(int(id), p)
			if dnd < 0 {
				tally[dport] += cnt
			} else {
				pending[dnd] += cnt
			}
		}
	}
}

// applyCells unfolds one shard's CELLN replies into the claimed values,
// newest-issued first per exit cell for antitokens. Shared by the
// serial and pipelined cell phases.
func (s *Session) applyCells(ids []int32, vals []int64, tally []int64, anti bool, dst []int64) []int64 {
	stride := s.c.stride
	for i, wireOut := range ids {
		cnt := tally[wireOut]
		end := vals[i]
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
	return dst
}

// fanScratch readies the per-shard fan-out scratch: one frame group
// per shard is built into s.frames (cut by frCut) before any is
// submitted.
func (s *Session) fanScratch(shards int) {
	if s.shIDs == nil {
		s.shIDs = make([][]int32, len(s.conns))
		s.shCut = make([]int, len(s.conns)+1)
		s.frCut = make([]int, len(s.conns)+1)
	}
	s.hnds = s.hnds[:0]
	s.frames = s.frames[:0]
}

// submitFan submits each shard's frame group (s.frames cut by frCut) to
// its pipe, recording the handle cut per shard for awaitFan.
func (s *Session) submitFan(shards int) {
	s.frCut[shards] = len(s.frames)
	for shard := 0; shard < shards; shard++ {
		s.shCut[shard] = len(s.hnds)
		if fr := s.frames[s.frCut[shard]:s.frCut[shard+1]]; len(fr) != 0 {
			s.hnds = s.submitChunks(s.pipe(shard), fr, s.hnds)
		}
	}
	s.shCut[shards] = len(s.hnds)
}

// stepLayerPipelined walks one layer with every shard in flight at
// once: build every shard's STEPN frames (drawing sequence numbers in
// the exact order the serial path would, so a retried flight replays
// identically — and failing before anything is sent if the flight's
// block runs out), submit them, then await shard by shard and fold the
// replies. The await order is the submit order, so the values line up
// with the ids by construction.
func (s *Session) stepLayerPipelined(layer []int32, shards int, pending, tally []int64, anti bool) error {
	s.fanScratch(shards)
	for shard := 0; shard < shards; shard++ {
		s.frCut[shard] = len(s.frames)
		ids := s.shIDs[shard][:0]
		for _, id := range layer {
			if int(id)%shards != shard || pending[id] == 0 {
				continue
			}
			sendN := pending[id]
			if anti {
				sendN = -sendN
			}
			f, err := s.mut(wire.OpStepN, id, sendN)
			if err != nil {
				return err
			}
			s.frames = append(s.frames, f)
			ids = append(ids, id)
		}
		s.shIDs[shard] = ids
	}
	s.submitFan(shards)
	return s.awaitFan(shards, func(shard int, vals []int64) {
		s.applyStep(s.shIDs[shard], vals, pending, tally)
	})
}

// cellsPipelined is the exit-cell phase with every shard in flight at
// once, appending the claimed values in the same shard order as the
// serial path.
func (s *Session) cellsPipelined(shards int, tally []int64, anti bool, dst []int64) ([]int64, error) {
	s.fanScratch(shards)
	stride := s.c.stride
	for shard := 0; shard < shards; shard++ {
		s.frCut[shard] = len(s.frames)
		ids := s.shIDs[shard][:0]
		for wireOut, cnt := range tally {
			if cnt == 0 || wireOut%shards != shard {
				continue
			}
			sendN := cnt
			if anti {
				sendN = -cnt
			}
			f, err := s.mut(wire.OpCellN, int32(wireOut)|int32(stride)<<16, sendN)
			if err != nil {
				return dst, err
			}
			s.frames = append(s.frames, f)
			ids = append(ids, int32(wireOut))
		}
		s.shIDs[shard] = ids
	}
	s.submitFan(shards)
	err := s.awaitFan(shards, func(shard int, vals []int64) {
		dst = s.applyCells(s.shIDs[shard], vals, tally, anti, dst)
	})
	return dst, err
}

// awaitFan flushes every pipe touched by a fan-out, awaits the handles
// shard by shard in submit order, and applies each shard's reply
// values. On an error it keeps draining the remaining handles — every
// submitted handle is awaited exactly once — and reports the first.
func (s *Session) awaitFan(shards int, apply func(shard int, vals []int64)) error {
	for shard := 0; shard < shards; shard++ {
		if s.pipes != nil && s.pipes[shard] != nil {
			s.pipes[shard].flush()
		}
	}
	var firstErr error
	for shard := 0; shard < shards; shard++ {
		hs := s.hnds[s.shCut[shard]:s.shCut[shard+1]]
		if len(hs) == 0 {
			continue
		}
		vals := s.vals[:0]
		shardErr := firstErr
		for _, h := range hs {
			var err error
			vals, err = s.pipes[shard].await(h, vals)
			if err != nil && shardErr == nil {
				shardErr = err
			}
		}
		s.vals = vals
		if shardErr != nil {
			if firstErr == nil {
				firstErr = shardErr
			}
			continue
		}
		apply(shard, vals)
	}
	s.hnds = s.hnds[:0]
	return firstErr
}

// ReadCell returns exit cell w's current value without modifying it
// (op READ, idempotent so retransmit-safe without a sequence number).
func (s *Session) ReadCell(w int) (int64, error) {
	one := [1]wire.Frame{{Op: wire.OpRead, ID: int32(w)}}
	vals, err := s.exchange(w%len(s.c.addrs), one[:], s.vals[:0])
	s.vals = vals[:0]
	if err != nil {
		return 0, err
	}
	return vals[0], nil
}

// Read sums the exit cells into the cluster's net count (increments
// minus decrements), the READ frames packed per shard — a whole-cluster
// exact-count read costs one datagram exchange per shard (per MTU
// chunk). Only meaningful while the cluster is quiescent, like
// counter.Network.Issued.
func (s *Session) Read() (int64, error) {
	n := s.c.net
	shards := len(s.c.addrs)
	var total int64
	if s.depth > 1 {
		// Fan the READ frames out to every shard at once: a pipelined
		// whole-cluster read costs one round trip, not one per shard.
		s.fanScratch(shards)
		for shard := 0; shard < shards; shard++ {
			s.frCut[shard] = len(s.frames)
			ids := s.shIDs[shard][:0]
			for w := 0; w < n.OutWidth(); w++ {
				if w%shards != shard {
					continue
				}
				s.frames = append(s.frames, wire.Frame{Op: wire.OpRead, ID: int32(w)})
				ids = append(ids, int32(w))
			}
			s.shIDs[shard] = ids
		}
		s.submitFan(shards)
		err := s.awaitFan(shards, func(shard int, vals []int64) {
			for i, w := range s.shIDs[shard] {
				total += (vals[i] - int64(w)) / s.c.stride
			}
		})
		if err != nil {
			return 0, err
		}
		return total, nil
	}
	for shard := 0; shard < shards; shard++ {
		s.frames = s.frames[:0]
		s.ids = s.ids[:0]
		for w := 0; w < n.OutWidth(); w++ {
			if w%shards != shard {
				continue
			}
			s.frames = append(s.frames, wire.Frame{Op: wire.OpRead, ID: int32(w)})
			s.ids = append(s.ids, int32(w))
		}
		if len(s.frames) == 0 {
			continue
		}
		vals, err := s.exchangeChunked(shard, s.frames, s.vals[:0])
		s.vals = vals
		if err != nil {
			return 0, err
		}
		for i, w := range s.ids {
			total += (vals[i] - int64(w)) / s.c.stride
		}
	}
	return total, nil
}

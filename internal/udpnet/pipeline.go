package udpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/wire"
)

// Pipelined sessions: SetPipeline(depth) replaces stop-and-wait with a
// bounded window of depth outstanding request datagrams per socket. The
// machinery below is the window. Each socket of a depth>1 session gets
// a pipe — a demux reader goroutine that matches replies to outstanding
// requests by the 8-byte request id every packet already opens with,
// retransmits each outstanding packet on its own jittered timer, and
// expires it against the session's retransmit policy. The session
// goroutine submits encoded packets and later awaits their handles in
// submission order, so everything above exchange() still sees a simple
// call/return world.
//
// Exactly-once is untouched by any of it: a pipelined session sends THE
// SAME frames with THE SAME (client, seq) pairs as a stop-and-wait
// session, just more of them concurrently — and the shard's per-client
// dedup ring (8192 sequence numbers deep, against at most depth
// packets ≈ a few hundred frames in flight) already absorbs duplicates
// and replays recorded replies whatever order the window's packets
// land in.
//
// Retransmit timers live in the reader, not in time.AfterFunc: the
// reader's next Read deadline is the earliest resend time among the
// outstanding packets (capped at readerParkMax so a stray clock never
// wedges it), which costs zero allocations per packet where a timer
// per packet would cost a heap timer each.

// readerParkMax caps one reader Read wait; it bounds how stale the
// reader's view of the resend schedule can get.
const readerParkMax = 50 * time.Millisecond

// handle is one outstanding request packet: the encoded datagram (kept
// for retransmission), the expected reply width, and the completion
// slot the session goroutine awaits. Handles are pooled per pipe and
// their buffers reused, so the steady-state pipelined path allocates
// nothing per packet.
type handle struct {
	reqid    uint64
	buf      []byte  // encoded request packet, owned by the handle
	want     int     // reply values expected (frames sent minus HELLO)
	vals     []int64 // decoded reply values, filled by the reader
	err      error
	done     chan struct{} // cap 1, reused across the handle's lives
	attempt  int           // sends so far (1 = first transmission)
	resendAt time.Time     // next retransmit (or expiry check) time
	deadline time.Time     // retransmit-budget bound; zero = none
}

// pipe is the pipelined state of one session socket. The session
// goroutine owns submit/flush/await and the scratch fields marked so;
// the reader goroutine owns the socket's read side; pend and the
// closed/err pair are the shared boundary, guarded by mu.
type pipe struct {
	s     *Session
	shard int
	conn  net.Conn
	seg   *segSender
	quit  chan struct{} // closes to unpark an idle reader at shutdown
	once  sync.Once     // stop idempotency
	wake  chan struct{} // cap 1: flush kicks the reader out of its park
	// tokens is the window semaphore: one slot per outstanding packet,
	// acquired at submit, released when the packet completes. Submit
	// blocking here (after flushing its queued sends, so the window can
	// drain) is what bounds the pipeline at depth.
	tokens chan struct{}
	wg     sync.WaitGroup

	mu     sync.Mutex
	pend   map[uint64]*handle // outstanding, keyed by request id
	closed bool
	err    error // the terminal socket error once closed

	// Session-goroutine-only scratch.
	unsentH []*handle
	unsentB [][]byte
	free    []*handle

	// Reader-goroutine-only scratch.
	exp []*handle
}

func newPipe(s *Session, shard int) *pipe {
	p := &pipe{
		s:      s,
		shard:  shard,
		conn:   s.conns[shard],
		seg:    newSegSender(s.conns[shard]),
		quit:   make(chan struct{}),
		wake:   make(chan struct{}, 1),
		tokens: make(chan struct{}, s.depth),
		pend:   make(map[uint64]*handle, s.depth),
	}
	p.wg.Add(1)
	go p.run()
	return p
}

// stop unparks an idle reader; the socket close that follows unblocks a
// reading one. Idempotent so Close can race itself.
func (p *pipe) stop() { p.once.Do(func() { close(p.quit) }) }

func (p *pipe) get() *handle {
	if n := len(p.free); n > 0 {
		h := p.free[n-1]
		p.free = p.free[:n-1]
		return h
	}
	return &handle{done: make(chan struct{}, 1)}
}

func (p *pipe) put(h *handle) { p.free = append(p.free, h) }

// submit encodes one request packet (HELLO + frames) under a window
// token and queues it for the next flush. It never fails — a dead
// socket surfaces through the handle at await — and it never deadlocks
// on a full window: queued sends are flushed before blocking, so the
// window can only be full of packets the reader is able to complete.
func (p *pipe) submit(frames []wire.Frame) *handle {
	s := p.s
	s.reqid++
	h := p.get()
	h.reqid = s.reqid
	h.want = len(frames)
	h.vals = h.vals[:0]
	h.err = nil
	h.attempt = 0
	s.fpkt = append(s.fpkt[:0], wire.Frame{Op: wire.OpHello, Client: s.client})
	s.fpkt = append(s.fpkt, frames...)
	h.buf = wire.AppendPacket(h.buf[:0], h.reqid, s.fpkt)
	select {
	case p.tokens <- struct{}{}:
	default:
		p.flush()
		p.tokens <- struct{}{}
	}
	s.outstanding.Add(1)
	p.unsentH = append(p.unsentH, h)
	p.unsentB = append(p.unsentB, h.buf)
	return h
}

// flush transmits every submitted-but-unsent packet as one burst (one
// sendmmsg on linux), registers the batch with the reader, and stamps
// each packet's first resend time. On a pipe whose reader already died
// the batch completes immediately with the terminal error instead —
// nothing is ever left in a state await can hang on.
func (p *pipe) flush() {
	if len(p.unsentH) == 0 {
		return
	}
	s := p.s
	now := time.Now()
	p.mu.Lock()
	closed, cerr := p.closed, p.err
	if !closed {
		for _, h := range p.unsentH {
			h.attempt = 1
			h.resendAt = now.Add(s.timer.Delay(1))
			if s.policy.Budget > 0 {
				h.deadline = now.Add(s.policy.Budget)
			} else {
				h.deadline = time.Time{}
			}
			p.pend[h.reqid] = h
		}
	}
	p.mu.Unlock()
	if closed {
		for _, h := range p.unsentH {
			h.err = cerr
			p.finish(h)
		}
	} else {
		for _, h := range p.unsentH {
			s.packets.Add(1)
			s.rpcs.Add(int64(h.want))
		}
		// A transient send error is recovered by the retransmit path; a
		// closed socket is surfaced by the reader failing the batch.
		p.seg.send(p.unsentB)
		select {
		case p.wake <- struct{}{}:
		default:
		}
	}
	p.unsentH = p.unsentH[:0]
	p.unsentB = p.unsentB[:0]
}

// await blocks until the handle's packet completed (reply matched,
// retransmit budget drained, or socket died), appends its reply values
// to dst and recycles the handle. Handles must be awaited in submission
// order per pipe and exactly once.
func (p *pipe) await(h *handle, dst []int64) ([]int64, error) {
	<-h.done
	dst = append(dst, h.vals...)
	err := h.err
	p.put(h)
	return dst, err
}

// finish releases a completed handle's window slot and signals the
// awaiting session goroutine. Every handle that acquired a token passes
// through here exactly once, whichever way it completed.
func (p *pipe) finish(h *handle) {
	<-p.tokens
	p.s.outstanding.Add(-1)
	h.done <- struct{}{}
}

// run is the demux reader: wait for whichever comes first of a datagram
// or the earliest retransmit time, match replies to outstanding packets
// by request id, and sweep the resend schedule. Stale and foreign
// datagrams — replies to already-completed requests, duplicate replies
// to retransmitted ones — fail the id lookup and are dropped, exactly
// like the stop-and-wait path drops them.
func (p *pipe) run() {
	defer p.wg.Done()
	rbuf := make([]byte, shardBufSize)
	for {
		p.mu.Lock()
		n := len(p.pend)
		var next time.Time
		for _, h := range p.pend {
			if next.IsZero() || h.resendAt.Before(next) {
				next = h.resendAt
			}
		}
		p.mu.Unlock()
		if n == 0 {
			select {
			case <-p.wake:
				continue
			case <-p.quit:
				p.fail(net.ErrClosed)
				return
			}
		}
		now := time.Now()
		if !next.After(now) {
			p.sweep(now)
			continue
		}
		dl := now.Add(readerParkMax)
		if next.Before(dl) {
			dl = next
		}
		p.conn.SetReadDeadline(dl)
		nb, err := p.conn.Read(rbuf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				p.fail(err)
				return
			}
			continue // deadline (sweep runs next lap) or transient
		}
		p.complete(rbuf[:nb])
	}
}

// complete matches one received datagram against the outstanding set
// and finishes the matched handle with its decoded values.
func (p *pipe) complete(b []byte) {
	if len(b) < wire.PacketOverhead {
		return
	}
	id := binary.BigEndian.Uint64(b[:wire.PacketOverhead])
	p.mu.Lock()
	h, ok := p.pend[id]
	if !ok || len(b) != wire.PacketOverhead+8*h.want {
		p.mu.Unlock()
		return // stale, foreign, or not a complete reply
	}
	delete(p.pend, id)
	p.mu.Unlock()
	for i := 0; i < h.want; i++ {
		off := wire.PacketOverhead + 8*i
		h.vals = append(h.vals, int64(binary.BigEndian.Uint64(b[off:off+8])))
	}
	p.finish(h)
}

// sweep walks the outstanding set at a resend tick: packets past their
// budget (attempts or deadline) expire with an error, the rest are
// retransmitted on their own jittered schedule — the per-packet
// retransmit timer, just multiplexed through the reader's deadline
// instead of a heap timer per packet.
func (p *pipe) sweep(now time.Time) {
	s := p.s
	p.mu.Lock()
	for id, h := range p.pend {
		if h.resendAt.After(now) {
			continue
		}
		if h.attempt >= s.policy.Attempts ||
			(!h.deadline.IsZero() && !now.Before(h.deadline)) {
			delete(p.pend, id)
			p.exp = append(p.exp, h)
			continue
		}
		h.attempt++
		s.retrans.Add(1)
		s.packets.Add(1)
		s.rpcs.Add(int64(h.want))
		p.conn.Write(h.buf)
		h.resendAt = now.Add(s.timer.Delay(h.attempt))
	}
	p.mu.Unlock()
	for _, h := range p.exp {
		h.err = fmt.Errorf("udpnet: shard %d: no response inside the retransmit budget after %d sends",
			p.shard, h.attempt)
		p.finish(h)
	}
	p.exp = p.exp[:0]
}

// fail completes every outstanding packet with the terminal socket
// error and marks the pipe closed, so late flushes complete their
// batches immediately instead of registering with a dead reader.
func (p *pipe) fail(err error) {
	p.mu.Lock()
	p.closed = true
	p.err = err
	for id, h := range p.pend {
		delete(p.pend, id)
		p.exp = append(p.exp, h)
	}
	p.mu.Unlock()
	for _, h := range p.exp {
		h.err = err
		h.vals = h.vals[:0]
		p.finish(h)
	}
	p.exp = p.exp[:0]
}

package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/network"
	"repro/internal/xport"
)

// The traced run records spans from the benchmark's own files, around
// the calls it makes into each layer's public functions: an op span
// around each Counter (or counter.Network) call, a session span around
// each call the xport pool makes into a session, and for frame-per-round-
// trip transports one exchange span per frame. Spans live in
// preallocated per-goroutine arenas and are written out once the run
// ends.

type spanKind uint8

const (
	kindOp spanKind = iota
	kindSession
	kindExchange
	kindScrape
)

var kindNames = [...]string{"op", "session", "exchange", "scrape"}

// span is one timed call. Every span of one operation carries that
// operation's id; parent is the arena index of the enclosing span, -1
// for an operation's root.
type span struct {
	start, end int64 // ns since the tracer's epoch
	parent     int32
	op         uint32
	kind       spanKind
}

// arena holds the spans one goroutine records. Only its owner appends,
// so recording takes no lock.
type arena struct {
	spans   []span
	stopAt  int   // once this many spans are held the traced phase ends
	cur     int32 // index of the open op span; -1 while the op is untraced
	opSeq   uint32
	dropped int64
	_       [64]byte // keeps callers' arenas off one cache line
}

// tracer owns the arenas of one traced run: one per caller plus a small
// one for the control-plane scraper.
type tracer struct {
	epoch   time.Time
	on      atomic.Bool // set while the measured phase runs
	full    atomic.Bool // an arena is close to its capacity
	arenas  []*arena
	pidSpan int // logical processes per caller: caller = pid / pidSpan

	// owner[in] is the caller whose goroutine is flying input wire in;
	// owner[inWidth] is the caller running a Read. The xport pool runs
	// every flight on the goroutine that owns it, so a session span
	// belongs to that caller's open op.
	owner []atomic.Int32

	topo   *network.Network
	shards int
}

// spanHeadroom is kept free in every caller arena for the ops in
// progress when the traced phase ends; scrapeSpans holds a minute of
// scrapes.
const (
	spanHeadroom = 4096
	scrapeSpans  = 1024
)

func newTracer(topo *network.Network, shards, callers, spanCap int) *tracer {
	t := &tracer{
		epoch:   time.Now(),
		arenas:  make([]*arena, 0, callers+1),
		pidSpan: logicalProcs / callers,
		owner:   make([]atomic.Int32, topo.InWidth()+1),
		topo:    topo,
		shards:  shards,
	}
	per := spanCap / callers
	for range callers {
		t.arenas = append(t.arenas, &arena{spans: make([]span, 0, per), stopAt: per - spanHeadroom, cur: -1})
	}
	t.arenas = append(t.arenas, &arena{spans: make([]span, 0, scrapeSpans), stopAt: scrapeSpans, cur: -1})
	for i := range t.owner {
		t.owner[i].Store(-1)
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its index, or -1 when the arena is
// full (the span is dropped and counted).
func (t *tracer) begin(a *arena, kind spanKind, parent int32, op uint32) int32 {
	if len(a.spans) == cap(a.spans) {
		a.dropped++
		return -1
	}
	if len(a.spans) >= a.stopAt {
		t.full.Store(true)
	}
	a.spans = append(a.spans, span{start: t.now(), parent: parent, op: op, kind: kind})
	return int32(len(a.spans) - 1)
}

func (t *tracer) end(a *arena, i int32) {
	if i >= 0 {
		a.spans[i].end = t.now()
	}
}

// beginOp opens the op span of caller c's next operation, if the
// measured phase is on.
func (t *tracer) beginOp(c int) {
	a := t.arenas[c]
	a.cur = -1
	if !t.on.Load() {
		return
	}
	a.opSeq++
	a.cur = t.begin(a, kindOp, -1, uint32(c)<<26|a.opSeq)
}

func (t *tracer) endOp(c int) {
	a := t.arenas[c]
	t.end(a, a.cur)
	a.cur = -1
}

// claim records that caller c is about to fly on slot (an input wire,
// or inWidth for a Read) from its own goroutine.
func (t *tracer) claim(slot, c int) { t.owner[slot].Store(int32(c)) }

// child opens a span under caller c's open op. The index is -1 when
// there is no such caller or its op is untraced.
func (t *tracer) child(c int32, kind spanKind) (a *arena, i int32) {
	if c < 0 {
		return nil, -1
	}
	a = t.arenas[c]
	if a.cur < 0 {
		return a, -1
	}
	return a, t.begin(a, kind, a.cur, a.spans[a.cur].op)
}

// tracedLink decorates an xport.Link so the sessions it dials record
// session spans. Everything but Dial passes through.
type tracedLink struct {
	xport.Link
	tr *tracer
}

func (l tracedLink) Dial(client uint64) (xport.Session, error) {
	inner, err := l.Link.Dial(client)
	if err != nil {
		return nil, err
	}
	s := &tracedSession{Session: inner, tr: l.tr}
	if x, ok := inner.(xport.Exchanger); ok {
		// The transport session is itself xport.Walk over its public
		// Exchange, so walking here over a timing Exchanger runs the
		// identical protocol and yields one span per frame.
		s.walk = xport.NewWalk(l.tr.topo, l.tr.shards)
		s.x = timedExchanger{x: x, tr: l.tr, parent: -1}
	}
	if ps, ok := inner.(xport.PacketSession); ok {
		return &tracedPacketSession{tracedSession: s, ps: ps}, nil
	}
	return s, nil
}

// tracedSession wraps a transport session. SetTape, RPCs, Healthy and
// Close pass through to it via the embedded interface.
type tracedSession struct {
	xport.Session
	tr   *tracer
	walk *xport.Walk    // non-nil when the transport exposes Exchange
	x    timedExchanger // reused: the pool hands a session to one flight at a time
}

func (s *tracedSession) open(c int32) (*arena, int32) {
	a, sp := s.tr.child(c, kindSession)
	s.x.a, s.x.parent = a, sp
	return a, sp
}

func (s *tracedSession) Inc(pid int) (int64, error) {
	c := pid / s.tr.pidSpan
	s.tr.claim(pid%s.tr.topo.InWidth(), c)
	a, sp := s.open(int32(c))
	defer s.tr.end(a, sp)
	if s.walk != nil {
		return s.walk.Inc(&s.x, pid)
	}
	return s.Session.Inc(pid)
}

func (s *tracedSession) Batch(in int, k int64, anti bool, dst []int64) ([]int64, error) {
	a, sp := s.open(s.tr.owner[in].Load())
	defer s.tr.end(a, sp)
	if s.walk != nil {
		return s.walk.Batch(&s.x, in, k, anti, dst)
	}
	return s.Session.Batch(in, k, anti, dst)
}

func (s *tracedSession) Read() (int64, error) {
	a, sp := s.open(s.tr.owner[s.tr.topo.InWidth()].Load())
	defer s.tr.end(a, sp)
	if s.walk != nil {
		return s.walk.Read(&s.x)
	}
	return s.Session.Read()
}

// tracedPacketSession passes a datagram session's packet counters
// through, so the Counter keeps billing packets and retransmits.
type tracedPacketSession struct {
	*tracedSession
	ps xport.PacketSession
}

func (s *tracedPacketSession) Packets() int64     { return s.ps.Packets() }
func (s *tracedPacketSession) Retransmits() int64 { return s.ps.Retransmits() }
func (s *tracedPacketSession) Outstanding() int64 { return s.ps.Outstanding() }

// timedExchanger records one exchange span per frame under the session
// span of the flight in progress.
type timedExchanger struct {
	x      xport.Exchanger
	tr     *tracer
	a      *arena
	parent int32
}

func (e *timedExchanger) Exchange(shard int, op byte, id int32, n int64) (int64, error) {
	if e.parent < 0 {
		return e.x.Exchange(shard, op, id, n)
	}
	sp := e.tr.begin(e.a, kindExchange, e.parent, e.a.spans[e.parent].op)
	v, err := e.x.Exchange(shard, op, id, n)
	e.tr.end(e.a, sp)
	return v, err
}

// Compile-time checks that the decorators satisfy the seam.
var (
	_ xport.Session       = (*tracedSession)(nil)
	_ xport.PacketSession = (*tracedPacketSession)(nil)
	_ xport.Exchanger     = (*timedExchanger)(nil)
)

// traceStats is what the spans of one traced run add up to.
type traceStats struct {
	ops          int64
	opSelf       int64   // ns outside every session span
	opDurs       []int64 // op span durations
	sessSelf     int64   // ns inside session spans, outside exchange spans
	sessDurs     []int64
	exchDurs     []int64
	scrapeDurs   []int64
	unreconciled int64 // ops whose spans do not nest or whose self times do not sum to the op span
	spans        int64
	dropped      int64
}

// analyze computes self times: a span's self time is its duration minus
// the durations of its children. For each op it checks that every child
// lies inside its parent, that siblings do not overlap, and that the
// self times of the op's spans sum to the op span.
func analyze(arenas []*arena) traceStats {
	var st traceStats
	for _, a := range arenas {
		sp := a.spans
		st.spans += int64(len(sp))
		st.dropped += a.dropped
		childSum := make([]int64, len(sp))
		lastEnd := make([]int64, len(sp))
		root := make([]int32, len(sp))
		bad := make([]bool, len(sp))
		for i := range sp {
			s := &sp[i]
			d := s.end - s.start
			if s.parent < 0 {
				root[i] = int32(i)
				bad[i] = s.end < s.start
				continue
			}
			p := &sp[s.parent]
			r := root[s.parent]
			root[i] = r
			if s.op != p.op || s.start < p.start || s.end > p.end || s.end < s.start || s.start < lastEnd[s.parent] {
				bad[r] = true
			}
			lastEnd[s.parent] = s.end
			childSum[s.parent] += d
		}
		selfSum := make([]int64, len(sp))
		for i := range sp {
			s := &sp[i]
			self := s.end - s.start - childSum[i]
			if self < 0 {
				bad[root[i]] = true
			}
			selfSum[root[i]] += self
			switch s.kind {
			case kindOp:
				st.opSelf += self
			case kindSession:
				st.sessSelf += self
				st.sessDurs = append(st.sessDurs, s.end-s.start)
			case kindExchange:
				st.exchDurs = append(st.exchDurs, s.end-s.start)
			}
		}
		for i := range sp {
			s := &sp[i]
			if s.parent >= 0 {
				continue
			}
			switch s.kind {
			case kindOp:
				st.ops++
				st.opDurs = append(st.opDurs, s.end-s.start)
			case kindScrape:
				st.scrapeDurs = append(st.scrapeDurs, s.end-s.start)
				continue
			}
			if bad[i] || selfSum[i] != s.end-s.start {
				st.unreconciled++
			}
		}
	}
	return st
}

// writeSpans writes every recorded span as tab-separated text: arena,
// index, parent, op id, kind, start and end in ns since the epoch.
func writeSpans(path string, arenas []*arena) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	fmt.Fprintln(w, "arena\tspan\tparent\top\tkind\tstart_ns\tend_ns")
	for ai, a := range arenas {
		for i, s := range a.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\t%d\n", ai, i, s.parent, s.op, kindNames[s.kind], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package main

import (
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/counter"
	"repro/internal/ctlplane"
	"repro/internal/inproc"
	"repro/internal/network"
	"repro/internal/tcpnet"
	"repro/internal/udpnet"
	"repro/internal/xport"
)

// The one topology every workload runs: C(8,24), where t = w·lg w is the
// paper's recommended regime, depth 6, partitioned across 2 shards per
// deployment.
const (
	netWidth     = 8
	netOutWidth  = 24
	deployShards = 2

	// logicalProcs is the paper's n ≫ w in miniature: caller c
	// shepherds logical processes [c·64/callers, (c+1)·64/callers), each
	// of which covers every input wire, so callers sometimes meet on one.
	logicalProcs = 64

	udpBatchK   = 64
	tcpBatchK   = 8
	scrapeEvery = 100 * time.Millisecond

	// spanCap bounds the spans a traced run keeps in memory.
	spanCap = 1 << 20
)

// workload is one closed-loop traffic mix: each caller waits for its
// value before asking again.
type workload struct {
	name      string
	callers   int    // caller goroutines, capped at runtime.NumCPU
	procs     int    // GOMAXPROCS for the run; 0 keeps Go's default
	transport string // "" for the bare counter.Network
	dense     bool   // check the values handed out are exactly [0, N)
	scrape    bool   // scrape the control plane every scrapeEvery
	op        func(st *stack, c *caller) (tokens, antitokens int64, err error)
}

var workloads = []*workload{
	{
		name:    "local-inc",
		callers: 2,
		dense:   true,
		op:      opLocalInc,
	},
	{
		name:      "inproc-inc",
		callers:   2,
		transport: "inproc",
		dense:     true,
		op:        opInc,
	},
	{
		name:    "udp-batch",
		callers: 1,
		// One P: the caller and both shards hand each packet over inside
		// the Go scheduler. On two, every packet woke a thread on the
		// other vCPU, and the op's tail followed how fast the hypervisor
		// woke it, which drifted from run to run.
		procs:     1,
		transport: "udp",
		dense:     true,
		op:        opUDPBatch,
	},
	{
		name:      "tcp-mixed",
		callers:   1,
		transport: "tcp",
		scrape:    true,
		op:        opTCPMixed,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// stack is one built deployment: the topology plus either the bare
// network counter or an xport.Counter over a 2-shard link.
type stack struct {
	topo   *network.Network
	local  *counter.Network
	ctr    *xport.Counter
	shards []ctlplane.Source
	fleet  *ctlplane.Fleet // the counter and its shards, as one /metrics scrape sees them
	tr     *tracer         // nil on untraced stacks
	stop   func()
}

// build sets up the workload's stack and flies the first flight, which
// dials the pool. With traced set, the counter runs over a decorated
// link that records spans.
func (w *workload) build(callers int, traced bool) (st *stack, err error) {
	topo, err := core.New(netWidth, netOutWidth)
	if err != nil {
		return nil, err
	}
	st = &stack{topo: topo, stop: func() {}}
	if traced {
		st.tr = newTracer(topo, deployShards, callers, spanCap)
	}
	if w.transport == "" {
		st.local = counter.NewNetwork(topo)
		return st, nil
	}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	var link xport.Link
	switch w.transport {
	case "inproc":
		cl, stop, err := inproc.StartCluster(topo, deployShards)
		if err != nil {
			return nil, err
		}
		link, st.stop = cl, stop
		for i := 0; i < deployShards; i++ {
			st.shards = append(st.shards, cl.Shard(i))
		}
	case "tcp":
		addrs, err := startShards(st, tcpnet.StartShard)
		if err != nil {
			return nil, err
		}
		link = tcpnet.NewCluster(topo, addrs)
	case "udp":
		addrs, err := startShards(st, udpnet.StartShard)
		if err != nil {
			return nil, err
		}
		link = udpnet.NewCluster(topo, addrs)
	default:
		return nil, fmt.Errorf("unknown transport %q", w.transport)
	}
	if st.tr != nil {
		link = tracedLink{Link: link, tr: st.tr}
	}
	st.ctr = xport.NewCounter(link, callers)
	st.fleet = ctlplane.NewFleet(w.name, "member")
	st.fleet.Add("counter", st.ctr)
	for i, s := range st.shards {
		st.fleet.Add(fmt.Sprintf("shard%d", i), s)
	}
	if _, err := st.ctr.Read(); err != nil {
		return nil, fmt.Errorf("first flight: %w", err)
	}
	return st, nil
}

// socketShard is what tcpnet and udpnet shard servers share.
type socketShard interface {
	ctlplane.Source
	Addr() string
	Close()
}

// startShards starts the deployment's socket shards on loopback ports
// and returns their addresses.
func startShards[S socketShard](st *stack, start func(string, *network.Network, int, int) (S, error)) ([]string, error) {
	var addrs []string
	for i := 0; i < deployShards; i++ {
		s, err := start("127.0.0.1:0", st.topo, i, deployShards)
		if err != nil {
			return nil, err
		}
		st.shards = append(st.shards, s)
		prev := st.stop
		st.stop = func() { s.Close(); prev() }
		addrs = append(addrs, s.Addr())
	}
	return addrs, nil
}

func (st *stack) close() {
	if st.ctr != nil {
		st.ctr.Close()
	}
	st.stop()
}

// read is the quiescent exact-count read.
func (st *stack) read() (int64, error) {
	if st.local != nil {
		return st.local.Issued(), nil
	}
	return st.ctr.Read()
}

// shardSum sums a counter metric over the stack's shards.
func (st *stack) shardSum(name string) int64 {
	var n int64
	for _, s := range st.shards {
		n += sampleSum(s.Gather(), name)
	}
	return n
}

// scrape renders the whole stack's metrics as one /metrics request
// would, and returns how many samples it gathered.
func (st *stack) scrape() (int, error) {
	samples := st.fleet.Gather()
	return len(samples), ctlplane.WritePrometheus(io.Discard, samples)
}

// caller is one closed-loop client goroutine. Everything it writes per
// op lives in this struct, padded at both ends, so two callers never
// share a cache line the benchmark itself writes.
type caller struct {
	_       [64]byte
	id      int
	st      *stack
	pcg     rand.PCG
	rng     *rand.Rand
	pidBase int
	pidSpan int
	vals    valueSet
	buf     []int64
	stalls  int64

	// Totals over the whole phase, warm-up included: what the
	// correctness checks reconcile against.
	tokens, antitokens int64
	errs               int64
	firstErr           error

	// Measured part of the phase.
	wins     []window
	lastDone time.Time
	_        [64]byte
}

// newCaller draws from the PCG stream (seed, stream), so every trial of
// a run draws different but replayable inputs.
func newCaller(id, callers int, seed, stream uint64, st *stack, nwin int) *caller {
	span := logicalProcs / callers
	c := &caller{
		id:      id,
		st:      st,
		pidBase: id * span,
		pidSpan: span,
		wins:    make([]window, nwin),
	}
	c.pcg.Seed(seed, stream)
	c.rng = rand.New(&c.pcg)
	for i := range c.wins {
		c.wins[i] = window{samples: make([]uint32, 0, windowSamples), stride: 1}
	}
	return c
}

func (c *caller) pid() int { return c.pidBase + c.rng.IntN(c.pidSpan) }

// begin and end bracket one call into the layer under test with an op
// span; claim marks the caller as the flyer of a wire before a call that
// carries no pid down to the session.
func (c *caller) begin() {
	if c.st.tr != nil {
		c.st.tr.beginOp(c.id)
	}
}

func (c *caller) end() {
	if c.st.tr != nil {
		c.st.tr.endOp(c.id)
	}
}

func (c *caller) claim(slot int) {
	if c.st.tr != nil {
		c.st.tr.claim(slot, c.id)
	}
}

func opLocalInc(st *stack, c *caller) (int64, int64, error) {
	pid := c.pid()
	var v int64
	c.begin()
	if st.tr != nil {
		v = st.local.IncStalls(pid, &c.stalls)
	} else {
		v = st.local.Inc(pid)
	}
	c.end()
	c.vals.add(v)
	return 1, 0, nil
}

func opInc(st *stack, c *caller) (int64, int64, error) {
	pid := c.pid()
	c.begin()
	v, err := st.ctr.Inc(pid)
	c.end()
	if err != nil {
		return 0, 0, err
	}
	c.vals.add(v)
	return 1, 0, nil
}

func opUDPBatch(st *stack, c *caller) (int64, int64, error) {
	pid := c.pid()
	c.claim(pid % netWidth)
	c.begin()
	vals, err := st.ctr.IncBatch(pid, udpBatchK, c.buf[:0])
	c.end()
	c.buf = vals
	if err != nil {
		return 0, 0, err
	}
	for _, v := range vals {
		c.vals.add(v)
	}
	return udpBatchK, 0, nil
}

func opTCPMixed(st *stack, c *caller) (int64, int64, error) {
	pid := c.pid()
	r := c.rng.IntN(100)
	var err error
	switch {
	case r < 79:
		c.begin()
		_, err = st.ctr.Inc(pid)
		c.end()
		if err == nil {
			return 1, 0, nil
		}
	case r < 94:
		c.claim(pid % netWidth)
		c.begin()
		_, err = st.ctr.Dec(pid)
		c.end()
		if err == nil {
			return 0, 1, nil
		}
	case r < 99:
		c.claim(pid % netWidth)
		c.begin()
		c.buf, err = st.ctr.IncBatch(pid, tcpBatchK, c.buf[:0])
		c.end()
		if err == nil {
			return tcpBatchK, 0, nil
		}
	default:
		c.claim(netWidth)
		c.begin()
		_, err = st.ctr.Read()
		c.end()
	}
	return 0, 0, err
}

// windowSamples bounds the latency samples one caller keeps per window.
const windowSamples = 1 << 15

// window is one caller's share of one measurement window. Latency is
// sampled systematically: every stride-th op, the stride doubling (and
// every other kept sample dropped) whenever the buffer fills, so the
// kept samples stay spread evenly over the window.
type window struct {
	tokens, ops, failed int64
	samples             []uint32 // op latency, ns
	stride              uint64
	seen                uint64
	_                   [64]byte // callers' windows are written per op
}

func (w *window) sample(ns int64) {
	w.seen++
	if w.seen%w.stride != 0 {
		return
	}
	if len(w.samples) == cap(w.samples) {
		// Sample i was taken at op (i+1)·stride; keep those on the
		// doubled stride.
		n := 0
		for i := 1; i < len(w.samples); i += 2 {
			w.samples[n] = w.samples[i]
			n++
		}
		w.samples = w.samples[:n]
		w.stride *= 2
		if w.seen%w.stride != 0 {
			return
		}
	}
	w.samples = append(w.samples, uint32(min(ns, math.MaxUint32)))
}

// phase is one measured stretch of closed-loop load on one stack.
type phase struct {
	w         *workload
	st        *stack
	callers   []*caller
	start     time.Time // end of warm-up, start of measurement
	windowLen time.Duration
	nwin      int

	scrapes, scrapeSamples, scrapeErrs int64
	replays, retransmits               int64 // set by check
}

// snapshot is process and stack state read at a phase boundary.
type snapshot struct {
	steal            int64 // host CPU ticks stolen so far, -1 if unknown
	mallocs, gcs     uint64
	packets, retrans int64             // counter's datagram bill
	samples          []ctlplane.Sample // counter
	shard            []ctlplane.Sample // all shards
}

func (p *phase) snap() snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := snapshot{steal: readSteal(), mallocs: ms.Mallocs, gcs: uint64(ms.NumGC)}
	if p.st.ctr != nil {
		s.packets, s.retrans = p.st.ctr.Packets(), p.st.ctr.Retransmits()
		s.samples = p.st.ctr.Gather()
		for _, sh := range p.st.shards {
			s.shard = append(s.shard, sh.Gather()...)
		}
	}
	return s
}

// run drives the callers through warm-up and then nwin windows of
// windowLen each, and returns the snapshots taken at the start and end
// of measurement.
func (p *phase) run(warmup time.Duration) (before, after snapshot) {
	p.start = time.Now().Add(warmup)
	end := p.start.Add(time.Duration(p.nwin) * p.windowLen)
	var wg sync.WaitGroup
	for _, c := range p.callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.loop(c, end)
		}()
	}
	stopScrape := make(chan struct{})
	var scrapeWG sync.WaitGroup
	if p.w.scrape {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			p.scrapeLoop(stopScrape)
		}()
	}
	time.Sleep(time.Until(p.start))
	before = p.snap()
	if p.st.tr != nil {
		p.st.tr.on.Store(true)
	}
	wg.Wait()
	if p.st.tr != nil {
		p.st.tr.on.Store(false)
	}
	after = p.snap()
	close(stopScrape)
	scrapeWG.Wait()
	return before, after
}

func (p *phase) loop(c *caller, end time.Time) {
	tr := p.st.tr
	for {
		t0 := time.Now()
		tok, anti, err := p.w.op(p.st, c)
		t1 := time.Now()
		if err != nil {
			c.errs++
			if c.firstErr == nil {
				c.firstErr = err
			}
		} else {
			c.tokens += tok
			c.antitokens += anti
		}
		if !t1.Before(end) || (tr != nil && tr.full.Load()) {
			return
		}
		if t0.Before(p.start) {
			continue
		}
		win := &c.wins[int(t1.Sub(p.start)/p.windowLen)]
		win.ops++
		if err != nil {
			win.failed++
		} else {
			win.tokens += tok + anti
		}
		win.sample(t1.Sub(t0).Nanoseconds())
		c.lastDone = t1
	}
}

// scrapeLoop is the control-plane scraper: every scrapeEvery it gathers
// the counter and both shards and renders them as /metrics would.
func (p *phase) scrapeLoop(stop <-chan struct{}) {
	tick := time.NewTicker(scrapeEvery)
	defer tick.Stop()
	tr := p.st.tr
	var seq uint32
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		sp := int32(-1)
		var a *arena
		if tr != nil && tr.on.Load() {
			a = tr.arenas[len(tr.arenas)-1]
			seq++
			sp = tr.begin(a, kindScrape, -1, seq)
		}
		n, err := p.st.scrape()
		if a != nil {
			tr.end(a, sp)
		}
		p.scrapes++
		p.scrapeSamples += int64(n)
		if err != nil {
			p.scrapeErrs++
		}
	}
}

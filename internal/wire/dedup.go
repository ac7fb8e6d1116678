package wire

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ctlplane"
)

// Default dedup bounds: a shard remembers, per client, the replies of
// that client's mutating frames in a direct-mapped ring of
// DefaultDedupWindow slots indexed by sequence number mod Window, and
// tracks at most DefaultDedupClients clients (least-recently-registered
// unpinned client evicted first). The window is the exactly-once
// horizon, counted in the client's SEQUENCE NUMBERS — reserved-but-
// unused ones and those spent on other shards included: a retry of seq
// s is deduplicated until a frame with seq >= s+Window from the same
// client reaches this shard, which a prompt bounded-budget retry stays
// far inside of. A client's dense stream spreads its numbers over the
// fleet, so on two shards 8192 slots keep the ~4096-frames-per-shard
// horizon of a frame-counted window. A full ring costs 16 bytes a slot
// (128 KiB per client per shard at the default), allocated on the
// client's first mutating frame, not at registration.
const (
	DefaultDedupWindow  = 8192
	DefaultDedupClients = 1024
)

// DefaultDedupMinIdle is the default eviction idle guard: an unpinned
// client entry whose last binding is more recent than this is never
// evicted at the Clients cap (the table temporarily grows instead).
// Connectionless transports depend on it — a UDP client pins its entry
// only for the instant each packet is processed, so without the guard,
// churn from other clients could evict a live client's window between
// a lost response and its retransmit and the duplicate would
// re-execute. Ten seconds covers the default retransmit and retry
// budgets (2s / 8s) with margin while bounding worst-case growth past
// the cap to ten seconds' worth of registration churn; deployments
// that raise those budgets should raise MinIdle with them.
const DefaultDedupMinIdle = 10 * time.Second

// DedupConfig sizes a shard's exactly-once state: Window is the number
// of (seq, reply) ring slots kept per client, Clients the number of
// clients tracked, MinIdle the how-recently-bound guard protecting
// live-but-unpinned clients from cap eviction (negative disables it).
// Zero fields take the defaults, so the zero value is the production
// configuration.
//
// MaxIdle is the idle-age expiry bound: an UNPINNED client whose last
// binding is older than MaxIdle is expired (window reclaimed) on the
// next registration, whether or not the Clients cap is reached — the
// reclaim path for abandoned client ids on shards that track fewer
// clients than the cap, where LRU eviction alone would let their
// windows live forever. 0 (the default) disables age expiry; a
// positive MaxIdle below the effective MinIdle is clamped up to it,
// since the guard promises that recently-bound clients survive.
type DedupConfig struct {
	Window  int
	Clients int
	MinIdle time.Duration
	MaxIdle time.Duration
}

func (c DedupConfig) withDefaults() DedupConfig {
	if c.Window <= 0 {
		c.Window = DefaultDedupWindow
	}
	if c.Clients <= 0 {
		c.Clients = DefaultDedupClients
	}
	if c.MinIdle == 0 {
		c.MinIdle = DefaultDedupMinIdle
	} else if c.MinIdle < 0 {
		c.MinIdle = 0
	}
	if c.MaxIdle < 0 {
		c.MaxIdle = 0
	} else if c.MaxIdle > 0 && c.MaxIdle < c.MinIdle {
		c.MaxIdle = c.MinIdle
	}
	return c
}

// Dedup is one shard's per-client exactly-once table: bounded
// (seq, reply) rings keyed by client id, with LRU eviction of
// unpinned clients at the Clients cap.
type Dedup struct {
	cfg     DedupConfig
	mu      sync.Mutex
	clients map[uint64]*list.Element // client id -> LRU element (*DedupEntry)
	lru     list.List                // most recently registered first

	// Control-plane counters (see Stats / RegisterMetrics). records is
	// the filled ring slots across all windows; replays and
	// evictions are monotone. They are bare atomic adds on paths already
	// holding a lock, so the hot path pays nothing measurable.
	records     atomic.Int64
	replays     atomic.Int64
	evictions   atomic.Int64
	expirations atomic.Int64
}

// NewDedup builds an empty table with cfg's bounds (zero fields take
// the defaults).
func NewDedup(cfg DedupConfig) *Dedup {
	return &Dedup{cfg: cfg.withDefaults(), clients: make(map[uint64]*list.Element)}
}

// Config reports the table's effective (defaulted) bounds.
func (d *Dedup) Config() DedupConfig { return d.cfg }

// DedupEntry pairs a registered client id with its dedup window. refs
// counts the bindings currently holding the id (guarded by the table's
// mutex): while any is live the entry is pinned against LRU eviction,
// so registration churn from other clients can never push out the
// window a live client's retry depends on.
type DedupEntry struct {
	id       uint64
	tab      *Dedup // owning table, for the shared occupancy/replay counters
	refs     int
	lastBind time.Time // guarded by the table's mutex

	// The client's bounded exactly-once window: a direct-mapped ring of
	// (seq, reply) slots, seq s living in slot s mod Window. It is
	// allocated on the first Do, so a binding that only reads (or a
	// client id that never mutates here) costs no ring. filled counts
	// occupied slots, for the records gauge.
	wmu    sync.Mutex
	win    uint64
	ring   []dedupSlot
	filled int64
}

// dedupSlot is one ring slot; seq 0 marks it empty (sequence numbers
// start at 1).
type dedupSlot struct {
	seq   uint64
	reply int64
}

// Do replays the recorded reply for an already-applied sequence, or
// runs exec exactly once and records its reply. The lock spans lookup
// and execution so a retry racing the original frame (same client, two
// connections or two datagrams) cannot double-apply; exec is a single
// atomic word operation, so serializing a client's frames per shard
// here costs lock-handoff nanoseconds against microsecond round trips.
//
// A sequence whose slot a newer one (seq >= s+Window) has taken over is
// past the horizon: it executes again, and its reply is not recorded
// over the newer one's.
func (e *DedupEntry) Do(seq uint64, exec func() (int64, bool)) (int64, bool) {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	if e.ring == nil {
		e.ring = make([]dedupSlot, e.win)
	}
	sl := &e.ring[seq%e.win]
	if sl.seq == seq {
		e.tab.replays.Add(1)
		return sl.reply, true
	}
	v, ok := exec()
	if !ok {
		return 0, false
	}
	if sl.seq < seq {
		if sl.seq == 0 {
			e.filled++
			e.tab.records.Add(1)
		}
		sl.seq, sl.reply = seq, v
	}
	return v, true
}

// Bind returns (registering if needed) the dedup entry for a client id,
// pinning it until the matching Release. Bindings announcing the same
// id — a pooled counter's whole session fleet, including the fresh
// session a retry runs on, or every datagram a UDP client sends — share
// one window per shard, which is what makes retries exactly-once.
// Eviction at the Clients cap takes the least recently registered
// client that is both UNPINNED and idle for at least the MinIdle guard
// (a client that bound recently may be a datagram client mid-exchange
// whose pin lasted only one packet); if every tracked client is pinned
// or recently active the map grows past the cap until one goes idle.
func (d *Dedup) Bind(id uint64) *DedupEntry {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := time.Now()
	d.expireLocked(now)
	if el, ok := d.clients[id]; ok {
		e := el.Value.(*DedupEntry)
		e.refs++
		e.lastBind = now
		d.lru.MoveToFront(el)
		return e
	}
	if len(d.clients) >= d.cfg.Clients {
		// The LRU is ordered by last bind, so the first UNPINNED entry
		// from the back is also the oldest unpinned one: either it is
		// past the idle guard and gets evicted, or every unpinned entry
		// is younger still and the scan can stop — only pinned entries
		// (rare, bounded by live connections) are ever stepped over.
		for el := d.lru.Back(); el != nil; el = el.Prev() {
			e := el.Value.(*DedupEntry)
			if e.refs != 0 {
				continue
			}
			if now.Sub(e.lastBind) >= d.cfg.MinIdle {
				d.lru.Remove(el)
				delete(d.clients, e.id)
				// refs == 0 under the table mutex means no Do is running
				// (Do only happens between Bind and Release), so the
				// filled count is stable here.
				d.records.Add(-e.filled)
				d.evictions.Add(1)
			}
			break
		}
	}
	e := &DedupEntry{id: id, tab: d, refs: 1, lastBind: now, win: uint64(d.cfg.Window)}
	d.clients[id] = d.lru.PushFront(e)
	return e
}

// expireLocked reclaims UNPINNED clients idle past the MaxIdle bound —
// the age-expiry path for abandoned client ids, run on every
// registration under the table mutex. The LRU is ordered by last bind,
// so the scan walks expired entries from the back and stops at the
// first one young enough to keep; only pinned entries older than the
// bound (bounded by live bindings) are stepped over. MaxIdle >= the
// MinIdle guard by construction, so a client recent enough to be
// protected from cap eviction is never expired either.
func (d *Dedup) expireLocked(now time.Time) {
	if d.cfg.MaxIdle <= 0 {
		return
	}
	var next *list.Element
	for el := d.lru.Back(); el != nil; el = next {
		next = el.Prev()
		e := el.Value.(*DedupEntry)
		if now.Sub(e.lastBind) < d.cfg.MaxIdle {
			return
		}
		if e.refs != 0 {
			continue
		}
		d.lru.Remove(el)
		delete(d.clients, e.id)
		// refs == 0 under the table mutex means no Do is running, so
		// the filled count is stable here.
		d.records.Add(-e.filled)
		d.expirations.Add(1)
	}
}

// Release unpins a dedup entry when its binding goes away (or rebinds
// to another id). The records stay until LRU eviction, so a retry that
// re-binds moments after its session died still finds them.
func (d *Dedup) Release(e *DedupEntry) {
	d.mu.Lock()
	e.refs--
	d.mu.Unlock()
}

// DedupStats is a point-in-time view of a table's exactly-once state —
// what the control plane scrapes. Replays and Evictions are monotone;
// the rest are levels.
type DedupStats struct {
	Clients     int           // client windows currently tracked
	Pinned      int           // of which pinned by a live binding
	Records     int64         // filled (seq, reply) ring slots across all windows
	Replays     int64         // frames answered from a record (absorbed duplicates)
	Evictions   int64         // client windows evicted at the Clients cap
	Expirations int64         // client windows expired by the MaxIdle age bound
	MinIdle     time.Duration // configured eviction idle guard
	MaxIdle     time.Duration // configured idle-age expiry bound (0 = disabled)
	OldestIdle  time.Duration // age of the least recently bound unpinned client
}

// Stats snapshots the table. It takes the registration mutex only (a
// scrape-time cost), never a window mutex, so it cannot delay a frame
// being deduplicated. OldestIdle is the operator's window-bloat signal:
// with MaxIdle unset, records never expire by AGE — only LRU eviction
// at the Clients cap reclaims them — so on a shard tracking fewer
// clients than the cap, an abandoned client's window lives forever and
// this age grows without bound; with MaxIdle set, registrations sweep
// such windows and the age stays under the bound.
func (d *Dedup) Stats() DedupStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := DedupStats{
		Clients:     len(d.clients),
		Records:     d.records.Load(),
		Replays:     d.replays.Load(),
		Evictions:   d.evictions.Load(),
		Expirations: d.expirations.Load(),
		MinIdle:     d.cfg.MinIdle,
		MaxIdle:     d.cfg.MaxIdle,
	}
	now := time.Now()
	for el := d.lru.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*DedupEntry)
		if e.refs != 0 {
			st.Pinned++
			continue
		}
		if st.OldestIdle == 0 {
			if age := now.Sub(e.lastBind); age > 0 {
				st.OldestIdle = age
			}
		}
	}
	return st
}

// RegisterMetrics exposes the table on a control-plane registry under
// the countnet_dedup_* names (OPERATIONS.md documents each). The
// closures call Stats at scrape time, so registration itself retains no
// state and the data path is untouched.
func (d *Dedup) RegisterMetrics(r *ctlplane.Registry, labels ...ctlplane.Label) {
	r.Gauge(MetricDedupClients, HelpDedupClients,
		func() int64 { return int64(d.Stats().Clients) }, labels...)
	r.Gauge(MetricDedupPinned, HelpDedupPinned,
		func() int64 { return int64(d.Stats().Pinned) }, labels...)
	r.Gauge(MetricDedupRecords, HelpDedupRecords,
		func() int64 { return d.records.Load() }, labels...)
	r.Counter(MetricDedupReplays, HelpDedupReplays,
		func() int64 { return d.replays.Load() }, labels...)
	r.Counter(MetricDedupEvictions, HelpDedupEvictions,
		func() int64 { return d.evictions.Load() }, labels...)
	r.Counter(MetricDedupExpirations, HelpDedupExpirations,
		func() int64 { return d.expirations.Load() }, labels...)
	r.Gauge(MetricDedupMinIdle, HelpDedupMinIdle,
		func() int64 { return int64(d.cfg.MinIdle / time.Second) }, labels...)
	r.Gauge(MetricDedupMaxIdle, HelpDedupMaxIdle,
		func() int64 { return int64(d.cfg.MaxIdle / time.Second) }, labels...)
	r.Gauge(MetricDedupOldestIdle, HelpDedupOldestIdle,
		func() int64 { return int64(d.Stats().OldestIdle / time.Second) }, labels...)
}

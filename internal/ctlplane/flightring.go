package ctlplane

import (
	"sort"
	"sync"
	"time"
)

// FlightEvent is one completed client flight as sampled into a
// FlightRing: what an operator needs to explain a tail-latency spike
// without a tracing dependency — when it ran, how long it took, how
// many attempts (sequence-block replays) it burned, and what it cost on the wire.
type FlightEvent struct {
	Start       time.Time `json:"start"`
	DurationNs  int64     `json:"duration_ns"`
	Op          string    `json:"op"`   // "inc", "dec", "inc-batch", "dec-batch", "read", "window"
	Wire        int       `json:"wire"` // input wire, -1 for reads
	Tokens      int64     `json:"tokens"`
	Attempts    int       `json:"attempts"`
	RPCs        int64     `json:"rpcs"`
	Retransmits int64     `json:"retransmits"`
	Outcome     string    `json:"outcome"`          // "ok" or the error text
	Source      string    `json:"source,omitempty"` // fleet member label, set on aggregation
}

// DefaultFlightEvents is the ring capacity a counter uses when none is
// configured: enough recent flights to catch a p99 sampler's eye,
// small enough to be free.
const DefaultFlightEvents = 64

// FlightRing is a bounded ring buffer of the last-N completed flights,
// served as JSON at /debug/flights. Recording takes one short mutex
// (no allocation beyond strings the caller already built); the ring
// never grows past its capacity.
type FlightRing struct {
	mu   sync.Mutex
	buf  []FlightEvent
	next int // slot the next Record overwrites
	n    int // occupancy, <= len(buf)
}

// NewFlightRing returns a ring holding the last n events (n <= 0 means
// DefaultFlightEvents).
func NewFlightRing(n int) *FlightRing {
	if n <= 0 {
		n = DefaultFlightEvents
	}
	return &FlightRing{buf: make([]FlightEvent, n)}
}

// Record stores one completed flight, evicting the oldest when full.
func (r *FlightRing) Record(ev FlightEvent) {
	r.mu.Lock()
	r.buf[r.next] = ev
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// Events returns the retained flights, newest first.
func (r *FlightRing) Events() []FlightEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]FlightEvent, 0, r.n)
	for i := 1; i <= r.n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}

// Len returns the current occupancy.
func (r *FlightRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// FlightSource is implemented by anything that retains flight events —
// a single counter (its ring) or a fleet (the merged rings of its
// members). Handler serves it at /debug/flights when the fronted
// Source implements it.
type FlightSource interface {
	Flights() []FlightEvent
}

// Flights merges member flight events (members that are not
// FlightSources contribute nothing), stamping each event's Source with
// the member's distinguishing label and returning the merged set
// newest first — the fleet-level slow-flight sampler.
func (f *Fleet) Flights() []FlightEvent {
	var out []FlightEvent
	for _, m := range f.snapshot() {
		fs, ok := m.src.(FlightSource)
		if !ok {
			continue
		}
		src := f.labelKey + "=" + m.value
		for _, ev := range fs.Flights() {
			if ev.Source == "" {
				ev.Source = src
			} else {
				ev.Source = src + "/" + ev.Source
			}
			out = append(out, ev)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.After(out[j].Start) })
	return out
}

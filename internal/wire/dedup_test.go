package wire

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The ring's horizon is counted in sequence numbers: seq s replays
// until a frame with seq >= s+Window lands in its slot, whatever lands
// in between (other slots, gaps left by numbers the client reserved
// but spent elsewhere), and re-executes after that.
func TestDedupRingHorizon(t *testing.T) {
	const win = 8
	d := NewDedup(DedupConfig{Window: win, Clients: 2})
	e := d.Bind(1)
	defer d.Release(e)
	execs := 0
	run := func(seq uint64, v int64) int64 {
		got, ok := e.Do(seq, func() (int64, bool) { execs++; return v, true })
		if !ok {
			t.Fatalf("seq %d: exec refused", seq)
		}
		return got
	}
	const s = 3
	run(s, 30)
	// Every other slot fills, sparsely and out of order; none is s's.
	for _, seq := range []uint64{10, 5, 4, 9, 7, 6, 8} {
		run(seq, int64(seq))
	}
	if got := run(s, -1); got != 30 || execs != 8 {
		t.Fatalf("inside the horizon: reply %d after %d execs, want 30 after 8", got, execs)
	}
	// The first number past the horizon takes s's slot.
	run(s+win, 110)
	if got := run(s, -2); got != -2 || execs != 10 {
		t.Fatalf("past the horizon: reply %d after %d execs, want -2 after 10", got, execs)
	}
	// The stale re-execution did not overwrite the newer record.
	if got := run(s+win, -3); got != 110 || execs != 10 {
		t.Fatalf("newer record clobbered: reply %d after %d execs, want 110 after 10", got, execs)
	}
}

// An original and its retry racing on two goroutines — a retransmit
// overtaking a slow original, or a retry on a fresh session while the
// dead one's frame is still being served — execute exactly once and
// both see the one recorded reply. The window covers the whole stream,
// so however far one goroutine runs ahead, the other stays inside the
// horizon.
func TestDedupRingRaceExactlyOnce(t *testing.T) {
	d := NewDedup(DedupConfig{Window: 2048, Clients: 2})
	a, b := d.Bind(7), d.Bind(7)
	defer d.Release(a)
	defer d.Release(b)
	if a != b {
		t.Fatal("two bindings of one client id got different windows")
	}
	const frames = 2000
	var applied atomic.Int64
	var replies [2][frames]int64
	var wg sync.WaitGroup
	for g, e := range []*DedupEntry{a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range frames {
				v, ok := e.Do(uint64(i+1), func() (int64, bool) { return applied.Add(1), true })
				if !ok {
					t.Errorf("goroutine %d seq %d: exec refused", g, i+1)
					return
				}
				replies[g][i] = v
			}
		}()
	}
	wg.Wait()
	if n := applied.Load(); n != frames {
		t.Fatalf("%d executions for %d frames", n, frames)
	}
	if replies[0] != replies[1] {
		t.Fatal("original and retry saw different replies")
	}
	if st := d.Stats(); st.Replays != frames {
		t.Fatalf("replays = %d, want %d", st.Replays, frames)
	}
}

// filledSlots counts an entry's occupied ring slots directly.
func filledSlots(e *DedupEntry) int64 {
	var n int64
	for _, sl := range e.ring {
		if sl.seq != 0 {
			n++
		}
	}
	return n
}

// The records gauge is the number of filled ring slots across every
// tracked window: it grows with first fills only (not overwrites or
// replays) and gives a window's slots back when LRU eviction or MaxIdle
// expiry drops it.
func TestDedupRingRecordsGauge(t *testing.T) {
	d := NewDedup(DedupConfig{Window: 4, Clients: 2, MinIdle: -1, MaxIdle: time.Hour})
	exec := func() (int64, bool) { return 1, true }
	want := func(stage string, entries ...*DedupEntry) {
		t.Helper()
		var n int64
		for _, e := range entries {
			n += filledSlots(e)
		}
		if got := d.Stats().Records; got != n {
			t.Fatalf("%s: records gauge %d, filled slots %d", stage, got, n)
		}
	}
	a := d.Bind(1)
	for seq := uint64(1); seq <= 6; seq++ { // wraps: slots 1, 2 overwritten
		a.Do(seq, exec)
	}
	a.Do(5, exec) // replay
	want("after wrap", a)
	b := d.Bind(2)
	b.Do(9, exec)
	want("two clients", a, b)
	d.Release(a)
	d.Release(b)

	// Client 3 evicts the least recently bound window (client 1).
	c := d.Bind(3)
	c.Do(1, exec)
	if st := d.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	want("after eviction", b, c)
	d.Release(c)

	// Age expiry: with the bound backdated, the next registration
	// sweeps every unpinned window.
	d.mu.Lock()
	d.cfg.MaxIdle = time.Nanosecond
	d.mu.Unlock()
	time.Sleep(time.Millisecond)
	fresh := d.Bind(4)
	defer d.Release(fresh)
	if st := d.Stats(); st.Expirations != 2 {
		t.Fatalf("expirations = %d, want 2", st.Expirations)
	}
	want("after expiry", fresh)
}

// Registration allocates no ring: a binding pays for its window on its
// first mutating frame, so a session that only reads — or a pooled
// session a flight never used on this shard — costs no ring memory.
func TestDedupRingLazyAlloc(t *testing.T) {
	d := NewDedup(DedupConfig{Window: 16})
	e := d.Bind(1)
	defer d.Release(e)
	if e.ring != nil {
		t.Fatalf("Bind allocated a %d-slot ring", len(e.ring))
	}
	if allocs := testing.AllocsPerRun(100, func() { d.Release(d.Bind(1)) }); allocs != 0 {
		t.Fatalf("rebinding a tracked client allocated %.0f times", allocs)
	}
	e.Do(1, func() (int64, bool) { return 0, true })
	if len(e.ring) != 16 {
		t.Fatalf("ring after the first frame has %d slots, want 16", len(e.ring))
	}
	if allocs := testing.AllocsPerRun(100, func() {
		e.Do(2, func() (int64, bool) { return 0, true })
	}); allocs != 0 {
		t.Fatalf("Do on an allocated ring allocated %.0f times", allocs)
	}
}

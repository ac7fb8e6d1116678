package wire

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// A dedup entry replays recorded replies for already-applied sequences
// and forgets a sequence once a newer one takes over its ring slot.
func TestDedupWindowReplayAndEviction(t *testing.T) {
	d := NewDedup(DedupConfig{Window: 4, Clients: 2})
	e := d.Bind(1)
	execs := 0
	exec := func(v int64) func() (int64, bool) {
		return func() (int64, bool) { execs++; return v, true }
	}
	for seq := uint64(1); seq <= 4; seq++ {
		if v, ok := e.Do(seq, exec(int64(seq*10))); !ok || v != int64(seq*10) {
			t.Fatalf("seq %d: (%d, %v)", seq, v, ok)
		}
	}
	// Replay: no extra executions, recorded replies come back.
	for seq := uint64(1); seq <= 4; seq++ {
		if v, ok := e.Do(seq, exec(-1)); !ok || v != int64(seq*10) {
			t.Fatalf("replay seq %d: (%d, %v)", seq, v, ok)
		}
	}
	if execs != 4 {
		t.Fatalf("execs = %d, want 4", execs)
	}
	// Push past the window: seq 5 takes seq 1's slot, so 1 re-executes.
	if _, ok := e.Do(5, exec(50)); !ok {
		t.Fatal("seq 5 failed")
	}
	if v, _ := e.Do(1, exec(-7)); v != -7 {
		t.Fatalf("evicted seq re-ran with %d, want -7", v)
	}
	if execs != 6 {
		t.Fatalf("execs = %d, want 6", execs)
	}
}

// The client table evicts the least recently registered UNPINNED client
// at the cap; pinned clients survive arbitrary churn.
func TestDedupClientPinning(t *testing.T) {
	d := NewDedup(DedupConfig{Window: 8, Clients: 2, MinIdle: -1})
	pinned := d.Bind(100)
	if _, ok := pinned.Do(1, func() (int64, bool) { return 42, true }); !ok {
		t.Fatal("record failed")
	}
	// Churn far past the cap while client 100 stays pinned.
	for id := uint64(1); id <= 10; id++ {
		d.Release(d.Bind(id))
	}
	replayed := true
	if v, _ := pinned.Do(1, func() (int64, bool) { replayed = false; return -1, true }); v != 42 || !replayed {
		t.Fatalf("pinned window lost its record across churn (v=%d, replayed=%v)", v, replayed)
	}
	// Unpin and churn again: now the entry is evictable, and a rebind
	// starts a fresh window.
	d.Release(pinned)
	for id := uint64(11); id <= 20; id++ {
		d.Release(d.Bind(id))
	}
	fresh := d.Bind(100)
	defer d.Release(fresh)
	ran := false
	if _, ok := fresh.Do(1, func() (int64, bool) { ran = true; return 0, true }); !ok || !ran {
		t.Fatal("post-eviction rebind did not re-execute")
	}
}

// Zero-valued configs take the production defaults.
func TestDedupConfigDefaults(t *testing.T) {
	d := NewDedup(DedupConfig{})
	cfg := d.Config()
	if cfg.Window != DefaultDedupWindow || cfg.Clients != DefaultDedupClients ||
		cfg.MinIdle != DefaultDedupMinIdle {
		t.Fatalf("defaulted config = %+v", cfg)
	}
}

// The MinIdle guard: an UNPINNED entry that was bound recently — a
// datagram client whose pin lasts only one packet — survives cap churn
// from other clients, so its window is still there when the lost
// response's retransmit arrives and the duplicate is replayed, not
// re-executed.
func TestDedupMinIdleGuardsRecentClients(t *testing.T) {
	d := NewDedup(DedupConfig{Window: 8, Clients: 2, MinIdle: time.Hour})
	e := d.Bind(100)
	if _, ok := e.Do(1, func() (int64, bool) { return 42, true }); !ok {
		t.Fatal("record failed")
	}
	d.Release(e) // refs back to 0: only the idle guard protects it now
	for id := uint64(1); id <= 10; id++ {
		d.Release(d.Bind(id))
	}
	again := d.Bind(100)
	defer d.Release(again)
	replayed := true
	if v, _ := again.Do(1, func() (int64, bool) { replayed = false; return -1, true }); v != 42 || !replayed {
		t.Fatalf("recently-active window evicted by churn (v=%d, replayed=%v)", v, replayed)
	}
}

// The MaxIdle age bound: an abandoned (unpinned, long-idle) client is
// expired on the next registration even far below the Clients cap,
// while pinned clients and recently-bound clients survive the sweep.
func TestDedupMaxIdleExpiry(t *testing.T) {
	// MinIdle -1 disables the recency guard so a tiny MaxIdle is not
	// clamped up to the 10s default.
	d := NewDedup(DedupConfig{Window: 4, Clients: 1024, MinIdle: -1, MaxIdle: 30 * time.Millisecond})
	if cfg := d.Config(); cfg.MaxIdle != 30*time.Millisecond {
		t.Fatalf("MaxIdle = %v, want 30ms", cfg.MaxIdle)
	}

	abandoned := d.Bind(1)
	if _, ok := abandoned.Do(1, func() (int64, bool) { return 10, true }); !ok {
		t.Fatal("record failed")
	}
	d.Release(abandoned) // departs: nothing pins it, nothing rebinds it

	pinned := d.Bind(2)
	if _, ok := pinned.Do(1, func() (int64, bool) { return 20, true }); !ok {
		t.Fatal("record failed")
	}
	// Client 2 stays pinned across the idle period, like a live TCP
	// connection that just isn't sending.

	time.Sleep(40 * time.Millisecond) // both idle past MaxIdle

	// A registration triggers the sweep: the abandoned window goes, the
	// pinned one is stepped over.
	recent := d.Bind(3)
	if st := d.Stats(); st.Expirations != 1 || st.Clients != 2 {
		t.Fatalf("after sweep: expirations=%d clients=%d, want 1, 2", st.Expirations, st.Clients)
	}
	replayed := true
	if v, _ := pinned.Do(1, func() (int64, bool) { replayed = false; return -1, true }); v != 20 || !replayed {
		t.Fatalf("pinned window expired by age (v=%d, replayed=%v)", v, replayed)
	}

	// A recently-bound UNPINNED client survives the next sweep: the scan
	// stops at the first entry younger than the bound.
	d.Release(recent)
	d.Release(d.Bind(4))
	if st := d.Stats(); st.Expirations != 1 {
		t.Fatalf("recently-bound client expired: expirations=%d, want 1", st.Expirations)
	}

	// The abandoned id rebinding starts from a fresh window: its old
	// record is gone, so the exec runs again.
	back := d.Bind(1)
	defer d.Release(back)
	ran := false
	if _, ok := back.Do(1, func() (int64, bool) { ran = true; return 0, true }); !ok || !ran {
		t.Fatal("expired client's rebind did not re-execute")
	}
	d.Release(pinned)
}

// Backoff delays are jittered exponentials: within [d/2, d] for
// d = min(Base<<(n-1), Max), never zero, never past Max.
func TestBackoffDelayBounds(t *testing.T) {
	b := Backoff{Base: 8 * time.Millisecond, Max: 50 * time.Millisecond}
	full := []time.Duration{8, 16, 32, 50, 50, 50}
	for attempt := 1; attempt <= len(full); attempt++ {
		want := full[attempt-1] * time.Millisecond
		for trial := 0; trial < 100; trial++ {
			d := b.Delay(attempt)
			if d < want/2 || d > want {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, want/2, want)
			}
		}
	}
	// The zero value is usable: defaults applied, still bounded.
	var zero Backoff
	if d := zero.Delay(1); d <= 0 || d > 2*time.Millisecond {
		t.Fatalf("zero-value first delay %v outside (0, 2ms]", d)
	}
	if d := zero.Delay(30); d <= 0 || d > 250*time.Millisecond {
		t.Fatalf("zero-value capped delay %v outside (0, 250ms]", d)
	}
}

// A seq block replays by arithmetic: every attempt that sets the same
// block draws Base, Base+1, ... again, a neighbouring flight's block
// never overlaps, drawing past the end fails instead of reusing a
// neighbour's numbers, and the zero block restores the session's own
// numbering.
func TestSeqBlockReplay(t *testing.T) {
	var src atomic.Uint64
	blk := ReserveSeqs(&src, 3)
	next := ReserveSeqs(&src, 2)
	if blk.Base == 0 || next.Base != blk.Base+blk.Span {
		t.Fatalf("blocks %+v then %+v: not adjacent and disjoint", blk, next)
	}
	var s SeqSource
	for attempt := 1; attempt <= 3; attempt++ {
		s.SetBlock(blk)
		for i := uint64(0); i < blk.Span; i++ {
			if got, err := s.Next(); err != nil || got != blk.Base+i {
				t.Fatalf("attempt %d draw %d = (%d, %v), want (%d, nil)", attempt, i, got, err, blk.Base+i)
			}
		}
		if got, err := s.Next(); !errors.Is(err, ErrSeqBlockExhausted) {
			t.Fatalf("attempt %d overrun = (%d, %v), want ErrSeqBlockExhausted", attempt, got, err)
		}
	}
	// A read-only flight's empty block never falls back to the
	// session's own numbering.
	s.SetBlock(ReserveSeqs(&src, 0))
	if _, err := s.Next(); !errors.Is(err, ErrSeqBlockExhausted) {
		t.Fatalf("empty block draw err = %v, want ErrSeqBlockExhausted", err)
	}
	s.SetBlock(SeqBlock{})
	if a, _ := s.Next(); a != 1 {
		t.Fatalf("own numbering starts at %d, want 1", a)
	}
	if b, _ := s.Next(); b != 2 {
		t.Fatalf("own numbering continues at %d, want 2", b)
	}
}

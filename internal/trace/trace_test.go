package trace

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func testRing(slots int) *Ring { return newRing(0, slots, time.Now()) }

func TestRingBasic(t *testing.T) {
	Enable()
	defer Disable()
	r := testRing(8)
	r.Emit(EvFork, 2, 10, 20)
	r.Emit(EvSteal, 0, 3, 0)
	evs := r.Snapshot()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Kind != EvFork || evs[0].Arg1 != 10 || evs[0].Arg2 != 20 || evs[0].Depth != 2 {
		t.Fatalf("event 0 = %+v", evs[0])
	}
	if evs[1].Kind != EvSteal || evs[1].Arg1 != 3 {
		t.Fatalf("event 1 = %+v", evs[1])
	}
	if evs[1].TS < evs[0].TS {
		t.Fatalf("timestamps not monotone: %d then %d", evs[0].TS, evs[1].TS)
	}
}

func TestRingDisabledAndNil(t *testing.T) {
	r := testRing(8)
	r.Emit(EvFork, 0, 1, 2) // tracing off: must be dropped
	if n := r.Len(); n != 0 {
		t.Fatalf("disabled emit recorded %d events", n)
	}
	var nilRing *Ring
	nilRing.Emit(EvFork, 0, 1, 2) // must not panic
	if nilRing.Snapshot() != nil || nilRing.Len() != 0 {
		t.Fatal("nil ring not inert")
	}
}

func TestRingWraparound(t *testing.T) {
	Enable()
	defer Disable()
	const slots = 16
	r := testRing(slots)
	const total = slots*3 + 5
	for i := 0; i < total; i++ {
		r.Emit(EvCounter, 0, uint64(CtrLiveWords), uint64(i))
	}
	evs := r.Snapshot()
	// A full ring yields slots-1 events: the oldest slot is always
	// indistinguishable from one the writer may be mid-overwrite on.
	if len(evs) != slots-1 {
		t.Fatalf("snapshot after wrap returned %d events, want %d", len(evs), slots-1)
	}
	// The surviving window must be exactly the last slots-1 emissions, in
	// order.
	for i, e := range evs {
		want := uint64(total - (slots - 1) + i)
		if e.Arg2 != want {
			t.Fatalf("event %d: arg2 = %d, want %d", i, e.Arg2, want)
		}
	}
	if r.Len() != total {
		t.Fatalf("Len = %d, want %d", r.Len(), total)
	}
}

// TestRingSnapshotDuringWrite hammers 8 single-writer rings while a
// reader snapshots them continuously. Under -race this checks the
// atomic-word slot discipline; the value checks verify that no snapshot
// ever returns a torn event (an event whose arg2 does not match the
// value its arg1 sequence number implies).
func TestRingSnapshotDuringWrite(t *testing.T) {
	Enable()
	defer Disable()
	const writers = 8
	const perWriter = 20000
	rings := make([]*Ring, writers)
	for i := range rings {
		rings[i] = newRing(int32(i), 64, time.Now())
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(r *Ring) {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				// arg1 carries the sequence, arg2 a value derived from it:
				// a torn slot shows up as a mismatched pair.
				r.Emit(EvPin, 1, uint64(j), uint64(j)*3+7)
			}
		}(rings[i])
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			for _, r := range rings {
				for _, e := range r.Snapshot() {
					if e.Kind != EvPin || e.Arg2 != e.Arg1*3+7 {
						t.Errorf("torn event: %+v", e)
						return
					}
				}
			}
		}
	}()
	wg.Wait()
	stop.Store(true)
	<-done
	for i, r := range rings {
		if r.Len() != perWriter {
			t.Fatalf("ring %d recorded %d events, want %d", i, r.Len(), perWriter)
		}
	}
}

func TestEnableRefcount(t *testing.T) {
	if Enabled() {
		t.Fatal("tracing enabled at test start")
	}
	Enable()
	Enable()
	Disable()
	if !Enabled() {
		t.Fatal("nested Enable lost")
	}
	Disable()
	if Enabled() {
		t.Fatal("tracing still on after balanced Disable")
	}
}

func TestTracerRings(t *testing.T) {
	tr := NewTracer(4, 1<<8)
	if tr.Workers() != 4 {
		t.Fatalf("Workers = %d", tr.Workers())
	}
	if tr.Ring(3) == nil || tr.CollectorRing() == nil {
		t.Fatal("missing rings")
	}
	if tr.Ring(5) != nil || tr.Ring(-1) != nil {
		t.Fatal("out-of-range ring not nil")
	}
	var nilT *Tracer
	if nilT.Ring(0) != nil || nilT.Workers() != 0 || nilT.Snapshot() != nil {
		t.Fatal("nil tracer not inert")
	}
	Enable()
	tr.Ring(1).Emit(EvJoin, 1, 42, 0)
	tr.CollectorRing().Emit(EvCGCCycleBegin, 0, 1, 0)
	Disable()
	snap := tr.Snapshot()
	if len(snap) != 5 {
		t.Fatalf("snapshot has %d rings", len(snap))
	}
	if len(snap[1]) != 1 || snap[1][0].Worker != 1 {
		t.Fatalf("worker ring events: %+v", snap[1])
	}
	if len(snap[4]) != 1 || snap[4][0].Kind != EvCGCCycleBegin {
		t.Fatalf("collector ring events: %+v", snap[4])
	}
}

func TestMetaPacking(t *testing.T) {
	for _, tc := range []struct {
		k     Kind
		w, d  int32
		wantD int32
	}{
		{EvPin, 0, 0, 0},
		{EvCounter, 63, 12345, 12345},
		{EvSteal, 7, -1, 0},             // negative depth clamps to 0
		{EvFork, 1, 1 << 25, 1<<24 - 1}, // oversized depth clamps
	} {
		k, w, d := unpackMeta(packMeta(tc.k, tc.w, tc.d))
		if k != tc.k || w != tc.w || d != tc.wantD {
			t.Fatalf("pack/unpack(%v,%d,%d) = (%v,%d,%d)", tc.k, tc.w, tc.d, k, w, d)
		}
	}
}

// TestCounterNamesStable: every counter track name a trace has carried still
// resolves, so a saved trace summarizes the same after the enum moves.
func TestCounterNamesStable(t *testing.T) {
	for _, name := range []string{
		"pinned_bytes", "pinned_peak_bytes", "live_words", "retained_chunks",
		"ancestry_queries", "heaps_dropped", "dropped_words",
		"static_regions", "elided_loads", "elided_stores",
		"requests_admitted", "requests_shed", "requests_deadline_exceeded", "tokens_in_use",
		"grid_cell", "grid_seed",
		"attr_pin_cas_ns", "attr_pin_cas_n", "attr_pin_retry_ns", "attr_pin_retry_n",
		"attr_gate_enter_ns", "attr_gate_enter_n", "attr_gate_exit_ns", "attr_gate_exit_n",
		"attr_remset_publish_ns", "attr_remset_publish_n", "attr_ancestry_query_ns", "attr_ancestry_query_n",
		"attr_unpin_at_join_ns", "attr_unpin_at_join_n", "attr_shade_queue_ns", "attr_shade_queue_n",
		"attr_budget_poll_ns", "attr_budget_poll_n", "attr_steal_loop_ns", "attr_steal_loop_n",
		"attr_merge_wait_ns", "attr_merge_wait_n", "attr_period", "attr_run_wall_ns", "attr_seq_wall_ns",
	} {
		if c, ok := CounterFromName(name); !ok || c.String() != name {
			t.Errorf("CounterFromName(%q) = %v, %v", name, c, ok)
		}
	}
}

func TestKindAndCounterNames(t *testing.T) {
	for k := Kind(1); k < evKinds; k++ {
		name := k.String()
		if name == "" || name == "invalid" {
			t.Fatalf("kind %d has no name", k)
		}
		got, ok := KindFromName(name)
		if !ok || got != k {
			t.Fatalf("KindFromName(%q) = %v, %v", name, got, ok)
		}
	}
	for c := Counter(0); c < ctrCounters; c++ {
		got, ok := CounterFromName(c.String())
		if !ok || got != c {
			t.Fatalf("CounterFromName(%q) = %v, %v", c.String(), got, ok)
		}
	}
}

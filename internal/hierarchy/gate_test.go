package hierarchy

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestGateEpochAdvances(t *testing.T) {
	var g Gate
	if g.Epoch() != 0 || g.Collecting() {
		t.Fatal("fresh gate not idle")
	}
	g.WaitBeginCollect()
	if !g.Collecting() {
		t.Fatal("collecting bit not visible")
	}
	if g.TryBeginCollect() {
		t.Fatal("TryBeginCollect closed a gate another collector holds")
	}
	g.EndCollect()
	if g.Epoch() != 1 || g.Collecting() {
		t.Fatalf("after one collection: epoch=%d collecting=%v", g.Epoch(), g.Collecting())
	}
	for i := 0; i < 5; i++ {
		if !g.TryBeginCollect() {
			t.Fatal("TryBeginCollect refused an open gate")
		}
		g.EndCollect()
	}
	if g.Epoch() != 6 {
		t.Fatalf("epoch = %d, want 6", g.Epoch())
	}
}

func TestGateReadersExcludeCollection(t *testing.T) {
	var g Gate
	g.EnterReader()
	g.EnterReader()

	started := make(chan struct{})
	finished := atomic.Bool{}
	go func() {
		close(started)
		g.WaitBeginCollect() // must wait for both readers
		finished.Store(true)
		g.EndCollect()
	}()
	<-started
	// The collector cannot finish WaitBeginCollect while readers are inside.
	// (No sleep-based assertion: just verify order via the collecting bit.)
	for !g.Collecting() {
	}
	if finished.Load() {
		t.Fatal("WaitBeginCollect returned with readers inside")
	}
	g.ExitReader()
	if finished.Load() {
		t.Fatal("WaitBeginCollect returned with a reader still inside")
	}
	g.ExitReader()
	for !finished.Load() {
	}
	// New readers are admitted once the epoch turned even.
	g.EnterReader()
	g.ExitReader()
	if g.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", g.Epoch())
	}
}

func TestGateEndCollectWithoutBeginPanics(t *testing.T) {
	var g Gate
	defer func() {
		if recover() == nil {
			t.Fatal("EndCollect on an open gate must panic")
		}
	}()
	g.EndCollect()
}

// TestGateStress interleaves many readers with repeated collections under
// the race detector and checks mutual exclusion with a plain (unguarded)
// counter: the gate itself must provide the ordering.
func TestGateStress(t *testing.T) {
	var g Gate
	var inside atomic.Int32
	violations := atomic.Int32{}
	stop := atomic.Bool{}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				g.EnterReader()
				inside.Add(1)
				inside.Add(-1)
				g.ExitReader()
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		g.WaitBeginCollect()
		if inside.Load() != 0 {
			violations.Add(1)
		}
		g.EndCollect()
	}
	stop.Store(true)
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d gate violations", v)
	}
	if g.Epoch() != 2000 {
		t.Fatalf("epoch = %d, want 2000", g.Epoch())
	}
}

package entangle

import (
	"sync"
	"testing"
)

// TestPinnedPeakConcurrent checks the high-water marks of the pinned gauge
// under concurrent pins and unpins. A pin site captures nothing: the marks
// are folded from the value a decrement finds (Stats.unpinned) and from the
// gauge itself at Snapshot. The scheme this replaced, twice removed, read
// the gauge after the joins' decrements and could report zero while pins
// were live; this one must be exact where the answer is known and inside
// the live maximum where it is not.
func TestPinnedPeakConcurrent(t *testing.T) {
	const (
		goroutines = 8
		perG       = 2000
		objWords   = 3
		total      = goroutines * perG
	)
	var s Stats
	each := func(f func()) {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					f()
				}
			}()
		}
		wg.Wait()
	}

	// Phase 1: pins only. The gauge ends at the total, nothing has been
	// folded yet, and Snapshot must still report the total as the peak.
	each(func() { s.pinned(objWords) })
	snap := s.Snapshot()
	if snap.PinnedNow != total || snap.PinnedPeak != total || snap.PinnedPeakBytes != total*objWords*8 {
		t.Fatalf("after %d pins: now=%d peak=%d peakBytes=%d", total, snap.PinnedNow, snap.PinnedPeak, snap.PinnedPeakBytes)
	}
	if p := pinLoad(s.peak.Load()); p != 0 {
		t.Fatalf("a pin site folded a peak (%d objects): only decrements and Snapshot do", p.objects())
	}

	// Phase 2: every pin is undone at once, on top of phase 1's, from all
	// goroutines. Each decrement folds what it found, so the marks can only
	// grow, and never past what was really live: phase 1's pins plus at
	// most one in flight per goroutine.
	each(func() {
		s.pinned(objWords)
		s.unpinned(1, objWords)
	})
	snap = s.Snapshot()
	if snap.PinnedNow != total {
		t.Fatalf("gauge = %d after balanced pin/unpin, want %d", snap.PinnedNow, total)
	}
	if snap.PinnedPeak <= total || snap.PinnedPeak > total+goroutines {
		t.Fatalf("peak = %d, want in (%d, %d]", snap.PinnedPeak, total, total+goroutines)
	}
	if b := snap.PinnedPeakBytes; b != snap.PinnedPeak*objWords*8 {
		t.Fatalf("byte peak = %d beside an object peak of %d: same-sized objects peak together", b, snap.PinnedPeak)
	}

	// One join takes everything off; the marks stay.
	s.unpinned(total, total*objWords)
	after := s.Snapshot()
	if after.PinnedNow != 0 || after.PinnedPeak != snap.PinnedPeak || after.PinnedPeakBytes != snap.PinnedPeakBytes {
		t.Fatalf("after the last unpin: now=%d peak=%d peakBytes=%d, want 0, %d, %d",
			after.PinnedNow, after.PinnedPeak, after.PinnedPeakBytes, snap.PinnedPeak, snap.PinnedPeakBytes)
	}
}

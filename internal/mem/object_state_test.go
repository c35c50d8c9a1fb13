package mem

import (
	"sync"
	"testing"
)

// newTestObj allocates one tuple of the given arity in a fresh heap.
func newTestObj(t testing.TB, words int) (*Space, Ref) {
	t.Helper()
	sp := NewSpace()
	al := NewAllocator(sp, 1)
	r := al.Alloc(KTuple, words)
	return sp, r
}

func TestPinHeaderTransitions(t *testing.T) {
	sp, r := newTestObj(t, 2)

	if st, _, _ := sp.PinHeader(r, 3); st != PinNew {
		t.Fatalf("first pin: %v, want PinNew", st)
	}
	if h := sp.Header(r); !h.Pinned() || !h.Candidate() || h.UnpinDepth() != 3 {
		t.Fatalf("header after pin: pinned=%v candidate=%v depth=%d", h.Pinned(), h.Candidate(), h.UnpinDepth())
	}
	// Deeper request: no change.
	if st, _, _ := sp.PinHeader(r, 5); st != PinAlready {
		t.Fatalf("deeper re-pin: %v, want PinAlready", st)
	}
	// Shallower request lowers the depth.
	if st, _, _ := sp.PinHeader(r, 1); st != PinDepthLowered {
		t.Fatalf("shallower re-pin: %v, want PinDepthLowered", st)
	}
	if h := sp.Header(r); !h.Pinned() || h.UnpinDepth() != 1 || !h.Candidate() {
		t.Fatalf("after lowering: pinned=%v depth=%d candidate=%v, want pinned at 1 and the bit kept", h.Pinned(), h.UnpinDepth(), h.Candidate())
	}
	// The pin is the header alone: one unpin clears it, a second finds nothing.
	if !sp.ChunkOf(r).TryUnpin(r, sp.Header(r)) || sp.Header(r).Pinned() {
		t.Fatal("TryUnpin of the pinned header did not clear the bit")
	}
	if h := sp.Header(r); h.Kind() != KTuple || h.Len() != 2 || !h.Candidate() || h.Busy() {
		t.Fatalf("unpin disturbed other header fields: %#x", uint64(h))
	}
	if sp.Unpin(r) {
		t.Fatal("Unpin of an unpinned header reported a pin")
	}
}

// TestPinHeaderSetsCandidate walks PinHeader over every header state —
// PLAIN, PINNED (deeper than, at, and shallower than the request), BUSY and
// FORWARDED, each with and without the candidate bit — and checks the one
// transition the table allows: a pin that takes leaves a pinned candidate at
// the minimum depth in a single step, a refusal leaves the word alone, and
// the returned header is the one observed before.
func TestPinHeaderSetsCandidate(t *testing.T) {
	const req = 3
	type state struct {
		name   string
		bits   uint64 // ORed into a fresh tuple header
		depth  int    // unpin depth field
		want   PinStatus
		pinned bool // the header is pinned before the call
	}
	states := []state{
		{name: "plain", want: PinNew},
		{name: "pinned-deeper", bits: hdrPinned, depth: 5, want: PinDepthLowered, pinned: true},
		{name: "pinned-equal", bits: hdrPinned, depth: req, want: PinAlready, pinned: true},
		{name: "pinned-shallower", bits: hdrPinned, depth: 1, want: PinAlready, pinned: true},
		{name: "busy", bits: hdrBusy, want: PinBusy},
		{name: "forwarded", want: PinForwarded},
	}
	for _, st := range states {
		for _, cand := range []bool{false, true} {
			sp, r := newTestObj(t, 2)
			c := sp.ChunkByID(r.Chunk())
			old := MakeHeader(KTuple, 2) | st.bits | uint64(st.depth)<<hdrUnpinSh
			if st.want == PinForwarded {
				old = MakeHeader(KForward, 2)
			}
			if cand {
				old |= hdrCandidate
			}
			c.Data[r.Off()] = old

			got, seen, _ := sp.PinHeader(r, req)
			want := st.want
			if want == PinAlready && !cand {
				// Pinned deep enough but not yet a candidate: the CAS that
				// adds the bit is a header change, reported as one.
				want = PinDepthLowered
			}
			name := st.name
			if cand {
				name += "+candidate"
			}
			if got != want {
				t.Fatalf("%s: status %v, want %v", name, got, want)
			}
			if uint64(seen) != old {
				t.Fatalf("%s: returned header %#x, want the observed %#x", name, uint64(seen), old)
			}
			h := sp.Header(r)
			switch want {
			case PinBusy, PinForwarded:
				if uint64(h) != old {
					t.Fatalf("%s: refused pin changed the header %#x -> %#x", name, old, uint64(h))
				}
			default:
				depth := req
				if st.pinned && st.depth < req {
					depth = st.depth
				}
				if !h.Pinned() || !h.Candidate() || h.UnpinDepth() != depth {
					t.Fatalf("%s: header after pin: pinned=%v candidate=%v depth=%d, want a pinned candidate at %d",
						name, h.Pinned(), h.Candidate(), h.UnpinDepth(), depth)
				}
				if h.Kind() != KTuple || h.Len() != 2 || h.Busy() {
					t.Fatalf("%s: pin disturbed other header fields: %#x", name, uint64(h))
				}
				// Only a pin of an unpinned header is new; the rest change
				// the header they found pinned.
				if (got == PinNew) == st.pinned {
					t.Fatalf("%s: status %v for a header pinned=%v", name, got, st.pinned)
				}
			}
		}
	}
}

func TestBeginCopyExcludesPin(t *testing.T) {
	sp, r := newTestObj(t, 1)

	h, ok := sp.BeginCopy(r)
	if !ok || h.Kind() != KTuple {
		t.Fatalf("BeginCopy on plain object failed: %v %v", h, ok)
	}
	if !sp.Header(r).Busy() {
		t.Fatal("busy bit not set")
	}
	// A pin attempt against a busy object must back off, not block or win.
	if st, _, _ := sp.PinHeader(r, 0); st != PinBusy {
		t.Fatalf("pin of busy object: %v, want PinBusy", st)
	}
	// A second claim must fail too.
	if _, ok := sp.BeginCopy(r); ok {
		t.Fatal("double BeginCopy succeeded")
	}

	// Complete the copy: the forwarded state is terminal for pinning.
	al := NewAllocator(sp, 1)
	nr := al.Alloc(KTuple, 1)
	sp.Forward(r, nr)
	if st, _, _ := sp.PinHeader(r, 0); st != PinForwarded {
		t.Fatalf("pin of forwarded object: %v, want PinForwarded", st)
	}
	if got, fwd := sp.Forwarded(r); !fwd || got != nr {
		t.Fatalf("Forwarded(r) = %v, %v", got, fwd)
	}
}

func TestBeginCopyRefusesPinned(t *testing.T) {
	sp, r := newTestObj(t, 1)
	sp.PinHeader(r, 0)
	if h, ok := sp.BeginCopy(r); ok || !h.Pinned() {
		t.Fatalf("BeginCopy claimed a pinned object (h=%v ok=%v)", h, ok)
	}
}

func TestTryUnpinRespectsConcurrentRepin(t *testing.T) {
	sp, r := newTestObj(t, 1)
	sp.PinHeader(r, 2)
	observed := sp.Header(r)

	// A racing reader lowers the depth after the join examined the header.
	if st, _, _ := sp.PinHeader(r, 1); st != PinDepthLowered {
		t.Fatalf("repin: %v", st)
	}
	if sp.ChunkOf(r).TryUnpin(r, observed) {
		t.Fatal("TryUnpin revoked a pin it had not seen")
	}
	if !sp.Header(r).Pinned() {
		t.Fatal("object lost its pin")
	}

	// With a current snapshot the unpin takes.
	if !sp.ChunkOf(r).TryUnpin(r, sp.Header(r)) {
		t.Fatal("TryUnpin with fresh snapshot failed")
	}
	if sp.Header(r).Pinned() {
		t.Fatal("still pinned after TryUnpin")
	}
}

func TestTryUnpinIgnoresUnpinned(t *testing.T) {
	sp, r := newTestObj(t, 1)
	if sp.ChunkOf(r).TryUnpin(r, sp.Header(r)) {
		t.Fatal("TryUnpin of an unpinned object reported success")
	}
}

// TestPinVsBeginCopyRace drives the central guarantee of the state machine
// under the race detector: for each fresh object, one goroutine attempts
// PinHeader while another attempts BeginCopy; exactly one must win, and the
// loser must observe why.
func TestPinVsBeginCopyRace(t *testing.T) {
	const rounds = 2000
	sp := NewSpace()
	al := NewAllocator(sp, 1)
	for i := 0; i < rounds; i++ {
		r := al.Alloc(KRefCell, 1)
		var (
			wg      sync.WaitGroup
			pinSt   PinStatus
			copyOK  bool
			copyHdr Header
		)
		wg.Add(2)
		go func() {
			defer wg.Done()
			pinSt, _, _ = sp.PinHeader(r, 0)
		}()
		go func() {
			defer wg.Done()
			copyHdr, copyOK = sp.BeginCopy(r)
		}()
		wg.Wait()

		pinned := pinSt == PinNew
		switch {
		case pinned && copyOK:
			t.Fatalf("round %d: both pin and copy won (hdr=%#x)", i, uint64(sp.Header(r)))
		case pinned && !copyOK:
			if !copyHdr.Pinned() {
				t.Fatalf("round %d: copy lost but did not observe the pin", i)
			}
		case !pinned && copyOK:
			if pinSt != PinBusy {
				t.Fatalf("round %d: pin lost with status %v, want PinBusy", i, pinSt)
			}
		default:
			t.Fatalf("round %d: nobody won (pin=%v copy=%v)", i, pinSt, copyOK)
		}
	}
}

package mem

import "testing"

// hdrModel is FuzzHeader's state machine for one object's header word,
// kept in fields rather than bits: what the transitions of object.go's
// state diagram must leave there.
type hdrModel struct {
	kind                     Kind
	n                        int
	cand, pinned, busy, fwdd bool
	depth                    int
	to                       Ref // a forwarded object's new location
}

// word is the header word the model's state packs to.
func (m *hdrModel) word() uint64 {
	w := MakeHeader(m.kind, m.n) | uint64(m.depth)<<hdrUnpinSh
	if m.cand {
		w |= hdrCandidate
	}
	if m.pinned {
		w |= hdrPinned
	}
	if m.busy {
		w |= hdrBusy
	}
	return w
}

// FuzzHeader drives the header word's transitions single-threaded —
// PinHeader at any depth, TryUnpin against the current header or a stale
// snapshot, Unpin, BeginCopy, Forward and CopyIn's forward of a claimed
// object, SetCandidate, and the PinnedWithin test — over a few objects,
// against hdrModel. Every call must return the status, the observed
// header and the CAS outcome the model predicts (a pin of a busy or
// forwarded header fails, an unpin against a snapshot a re-pin changed
// fails, a claim of a pinned header fails, no CAS is lost with no rival),
// and leave exactly the word the model packs.
//
// The input is an op stream, two bytes per op: an opcode (low three bits)
// with an object index (the rest), and an argument byte.
func FuzzHeader(f *testing.F) {
	f.Add([]byte{})
	// Pin at 5, lower to 2, re-pin at 7 (already), unpin, claim, forward.
	f.Add([]byte{0x00, 5, 0x00, 2, 0x00, 7, 0x01, 0, 0x03, 0, 0x04, 0})
	// A stale snapshot after a lowering re-pin, a claim refused by a pin,
	// a pin refused by a claim, a candidate set, a copy.
	f.Add([]byte{0x08, 9, 0x08, 4, 0x09, 1, 0x0b, 0, 0x02, 0, 0x0b, 0, 0x08, 3, 0x05, 0, 0x0c, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := NewSpace()
		a := NewAllocator(s, 1)
		to := NewAllocator(s, 2)
		var refs []Ref
		var models []*hdrModel
		for i, n := range []int{0, 1, 3, 8} {
			kind := [...]Kind{KTuple, KArray, KRefCell, KRaw}[i]
			refs = append(refs, a.Alloc(kind, n))
			models = append(models, &hdrModel{kind: kind, n: n})
		}
		var stale Header // the last header a TryUnpin snapshot saw
		for ; len(ops) >= 2; ops = ops[2:] {
			op, arg := ops[0]&7, int(ops[1])
			i := int(ops[0]>>3) % len(refs)
			r, m := refs[i], models[i]
			c := s.ChunkOf(r)
			before := Header(m.word())
			switch op {
			case 0: // PinHeader
				depth := arg * 0x101 // reaches MaxUnpinDepth
				if arg == 0xff {
					depth = MaxUnpinDepth + 1 + arg // clamped
				}
				st, was, retries := s.PinHeader(r, depth)
				want := PinNew
				switch {
				case m.fwdd:
					want = PinForwarded
				case m.busy:
					want = PinBusy
				default:
					d := min(depth, MaxUnpinDepth)
					if m.pinned {
						d = min(d, m.depth)
						want = PinDepthLowered
						if d == m.depth && m.cand {
							want = PinAlready
						}
					}
					m.pinned, m.cand, m.depth = true, true, d
				}
				if st != want || was != before || retries != 0 {
					t.Fatalf("PinHeader(%v, %d) on %#x: %v, saw %#x, %d retries; model %v", r, depth, uint64(before), st, uint64(was), retries, want)
				}
			case 1: // TryUnpin against the current header, or the last snapshot
				observed := before
				if arg&1 == 1 && stale != 0 {
					observed = stale
				}
				stale = before
				ok := c.TryUnpin(r, observed)
				want := observed.Pinned() && observed == before
				if want {
					m.pinned = false
				}
				if ok != want {
					t.Fatalf("TryUnpin(%v, %#x) on %#x: %v, model %v", r, uint64(observed), uint64(before), ok, want)
				}
			case 2: // Unpin
				want := m.pinned
				m.pinned = false
				if ok := s.Unpin(r); ok != want {
					t.Fatalf("Unpin(%v) on %#x: %v, model %v", r, uint64(before), ok, want)
				}
			case 3: // BeginCopy
				want := !m.pinned && !m.busy && !m.fwdd
				hd, ok := c.BeginCopy(r.Off())
				if want {
					m.busy = true
				}
				if ok != want || hd != before {
					t.Fatalf("BeginCopy(%v) on %#x: %#x, %v; model %v", r, uint64(before), uint64(hd), ok, want)
				}
			case 4: // Forward a claimed object: Space.Forward, or CopyIn's
				if !m.busy {
					continue // only the claiming collector forwards
				}
				var nr Ref
				if arg&1 == 0 {
					nr = to.Alloc(m.kind, m.n)
					s.Forward(r, nr)
				} else {
					nr = to.CopyIn(c, r.Off(), before)
					// The copy keeps the candidate bit and drops the rest.
					refs = append(refs, nr)
					models = append(models, &hdrModel{kind: m.kind, n: m.n, cand: m.cand})
				}
				*m = hdrModel{kind: KForward, n: m.n, fwdd: true, to: nr}
			case 5: // SetCandidate
				want := !m.cand
				m.cand = true
				if ok := c.SetCandidate(r); ok != want {
					t.Fatalf("SetCandidate(%v) on %#x: %v, model %v", r, uint64(before), ok, want)
				}
			default: // PinnedWithin
				depth := arg * 0x101
				want := m.pinned && m.cand && !m.busy && !m.fwdd && m.depth <= depth
				if got := before.PinnedWithin(depth); got != want {
					t.Fatalf("PinnedWithin(%d) of %#x: %v, model %v", depth, uint64(before), got, want)
				}
			}
			if got := uint64(s.Header(r)); got != m.word() {
				t.Fatalf("op %d on %v: header %#x, model %#x", op, r, got, m.word())
			}
			if m.fwdd {
				if fwd, moved := s.Forwarded(r); !moved || fwd != m.to {
					t.Fatalf("forwarded %v resolves to %v (%v), model %v", r, fwd, moved, m.to)
				}
			}
		}
	})
}

package hierarchy

import "sync/atomic"

// segCap is the number of entries one segment holds.
const segCap = 16

// seg is the package's one segment type: a fixed array of entries, a count
// and a link. A segment is in one of two phases. Published in a stack, its
// slots are claimed by concurrent pushers with a fetch-add on n, which may
// transiently exceed segCap. Owned by a List, n is a plain field only the
// list's owner touches. A segment changes phase once, in List.adopt, behind
// a closed gate whose atomics order the pushers' writes before the owner's
// reads.
type seg[T any] struct {
	vals [segCap]T
	n    int32
	next *seg[T]
}

// each visits the entries of one segment, clamping a pusher's overshoot.
func (sg *seg[T]) each(visit func(T)) {
	for _, v := range sg.vals[:min(sg.n, segCap)] {
		visit(v)
	}
}

// stack is a segmented Treiber stack: the lock-free publication buffer
// foreign tasks push into. Slots within the top segment are claimed with a
// fetch-add, so the common push is two atomic ops and no allocation; a new
// segment (one small allocation per segCap pushes) is installed by CAS
// when the top fills.
//
// The slot stores themselves are plain: every push happens while holding
// the owning heap's reader gate, and the owner takes the chain only after
// WaitBeginCollect has quiesced the gate (or, for the reuse buffer, while the
// pusher is known idle), so those atomics order claimed-and-written slots
// before any read of them.
type stack[T any] struct {
	top atomic.Pointer[seg[T]]
}

func (s *stack[T]) push(v T) {
	for {
		sg := s.top.Load()
		if sg != nil {
			if i := atomic.AddInt32(&sg.n, 1) - 1; i < segCap {
				sg.vals[i] = v
				return
			}
			// Segment full (the overshoot is harmless; readers clamp).
		}
		nsg := &seg[T]{next: sg, n: 1}
		nsg.vals[0] = v
		if s.top.CompareAndSwap(sg, nsg) {
			return
		}
		// Lost the install race; retry against the new top.
	}
}

// take detaches and returns the stack's segment chain, newest segment
// first. Owner-only. The owner is the only one who detaches, so a nil load
// is final: an empty stack — every buffer of a disentangled heap — costs
// one load and no read-modify-write.
func (s *stack[T]) take() *seg[T] {
	if s.top.Load() == nil {
		return nil
	}
	return s.top.Swap(nil)
}

// drain detaches the stack and visits its entries in unspecified order.
func (s *stack[T]) drain(visit func(T)) {
	for sg := s.take(); sg != nil; sg = sg.next {
		sg.each(visit)
	}
}

// peek visits the entries of a publication stack without detaching it.
// Caller must hold the gate closed (WaitBeginCollect/TryBeginCollect): pushes
// happen under the reader gate, so a closed gate means no slot is
// mid-write and every claimed slot is visible.
func (s *stack[T]) peek(visit func(T)) {
	for sg := s.top.Load(); sg != nil; sg = sg.next {
		sg.each(visit)
	}
}

// List is an owner-only sequence of entries held in a chain of segments:
// the remembered and pinned sets of a heap. An entry is written once, by
// Append or by a foreign push that adopt later takes over, and from then on
// travels by pointer: Splice at a join and adopt at a drain relink whole
// chains, so neither costs anything per entry. Segments other than the
// tail may be partly filled (one per splice or adoption at most). The zero
// List is empty; a List value may be assigned, after which the source must
// not be used. No segment ever belongs to two lists.
type List[T any] struct {
	head, tail *seg[T]
	n          int
}

// Len returns the number of entries.
func (l *List[T]) Len() int { return l.n }

// link hangs the chain first…last after the tail.
func (l *List[T]) link(first, last *seg[T]) {
	if l.tail == nil {
		l.head = first
	} else {
		l.tail.next = first
	}
	l.tail = last
}

// Append adds v at the end.
func (l *List[T]) Append(v T) {
	sg := l.tail
	if sg == nil || sg.n == segCap {
		sg = new(seg[T])
		l.link(sg, sg)
	}
	sg.vals[sg.n] = v
	sg.n++
	l.n++
}

// Each visits the entries in order.
func (l *List[T]) Each(visit func(T)) {
	for sg := l.head; sg != nil; sg = sg.next {
		sg.each(visit)
	}
}

// Splice moves every entry of from onto the end of l, in order and in
// O(1), and leaves from empty and reusable.
func (l *List[T]) Splice(from *List[T]) {
	if from.head == nil {
		return
	}
	l.link(from.head, from.tail)
	l.n += from.n
	from.Reset()
}

// Reset empties the list.
func (l *List[T]) Reset() { *l = List[T]{} }

// Filter drops the entries keep rejects, compacting the survivors toward
// the head of the same segments: order is preserved and nothing is
// allocated. keep is called once per entry, in order.
func (l *List[T]) Filter(keep func(T) bool) {
	w, wi, kept := l.head, int32(0), 0 // write cursor; never ahead of the read cursor
	for sg := l.head; sg != nil; sg = sg.next {
		for _, v := range sg.vals[:sg.n] {
			if !keep(v) {
				continue
			}
			if wi == segCap {
				w.n = segCap
				w, wi = w.next, 0
			}
			w.vals[wi] = v
			wi++
			kept++
		}
	}
	if kept == 0 {
		l.Reset()
		return
	}
	w.n, w.next = wi, nil
	l.tail, l.n = w, kept
}

// adopt moves every entry published in s onto the end of l by taking over
// the stack's segments (newest segment first; order within one is push
// order). It walks segments, not entries.
func (l *List[T]) adopt(s *stack[T]) {
	first := s.take()
	if first == nil {
		return
	}
	last := first
	for sg := first; sg != nil; sg = sg.next {
		sg.n = min(sg.n, segCap)
		l.n += int(sg.n)
		last = sg
	}
	l.link(first, last)
}

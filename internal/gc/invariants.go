package gc

import (
	"fmt"
	"sync/atomic"

	"mplgo/internal/hierarchy"
	"mplgo/internal/mem"
)

// The chaos layer's invariant checker. Two strengths:
//
//   - CheckHeap(h, strict=false) is the relaxed, owner-callable audit run
//     at joins while the rest of the computation is still running: it
//     sweeps only structures the calling strand owns (the heap's chunk
//     list, its owner-only remembered set) using atomic header loads, so
//     it is race-free against concurrent entanglement pins. It verifies
//     every chunk of the heap names it twice over — its id and the heap
//     itself as owner (the barriers find a heap through the owner alone, so
//     a merge that re-pointed one and not the other is caught here) —
//     every allocated header parses (valid bit, known kind, length within
//     chunk) and every remembered entry is well-formed.
//
//   - CheckInvariants(strict=true) is the quiescent audit run at the end
//     of a computation (and callable from tests): everything above, plus
//     gate quiescence (reader count zero, collecting bit clear), pin
//     listing (every pinned header in the heap's chunks is in its pinned
//     set, where a local collection finds the chunks it must keep), no
//     transient BUSY bit, no from-space, Survivor or Keep chunk mark and no
//     in-place mark state left on a chunk outside a collection, no Tenured
//     chunk holding a swept free list, and — via Validate — that no live
//     path reaches a stale forwarding header.
//
// Sweeps are possible because chunks are bump-allocated densely: objects
// occupy [off, off+1+max(1,len)) back to back from offset 0 to c.Alloc,
// and forwarding headers preserve the length, so a linear walk never loses
// framing.

// CheckHeap audits one heap. strict additionally enforces the quiescent
// invariants (gate drained, every pin listed, no transient bits).
func CheckHeap(sp *mem.Space, h *hierarchy.Heap, strict bool) error {
	if strict {
		if n := h.Gate.Readers(); n != 0 {
			return fmt.Errorf("gc: heap %d gate holds %d readers at a quiescent point", h.ID, n)
		}
		if h.Gate.Collecting() {
			return fmt.Errorf("gc: heap %d gate marked collecting at a quiescent point", h.ID)
		}
	}
	var listed map[mem.Ref]bool // h.ForEachPinned, read at the first pinned header
	for _, c := range h.Chunks {
		if c.HeapID() != h.ID || hierarchy.OwnerOf(c) != h {
			return fmt.Errorf("gc: heap %d chunk %d: owned by heap id %d, owner %s", h.ID, c.ID, c.HeapID(), describe(hierarchy.OwnerOf(c)))
		}
		if c.Alloc > c.Words() {
			return fmt.Errorf("gc: heap %d chunk %d: bump offset %d past its %d words", h.ID, c.ID, c.Alloc, c.Words())
		}
		off := 0
		for off < c.Alloc {
			hd := mem.Header(atomic.LoadUint64(&c.Data[off]))
			if !hd.Valid() {
				return fmt.Errorf("gc: heap %d chunk %d: invalid header %#x at +%d", h.ID, c.ID, uint64(hd), off)
			}
			if hd.Kind() > mem.KFree {
				return fmt.Errorf("gc: heap %d chunk %d: unknown kind %d at +%d", h.ID, c.ID, hd.Kind(), off)
			}
			if hd.Kind() == mem.KFree && (hd.Pinned() || hd.Busy()) {
				return fmt.Errorf("gc: heap %d chunk %d: free span at +%d carries state bits %#x", h.ID, c.ID, off, uint64(hd))
			}
			n := hd.Len()
			if n < 1 {
				n = 1
			}
			if off+1+n > c.Alloc {
				return fmt.Errorf("gc: heap %d chunk %d: object at +%d (len %d) overruns bump offset %d", h.ID, c.ID, off, hd.Len(), c.Alloc)
			}
			if strict {
				if hd.Pinned() {
					if listed == nil {
						listed = map[mem.Ref]bool{}
						h.ForEachPinned(func(r mem.Ref) { listed[r] = true })
					}
					if r := mem.MakeRef(c.ID, off); !listed[r] {
						return fmt.Errorf("gc: heap %d chunk %d: pinned object at +%d is not in the heap's pinned set", h.ID, c.ID, off)
					}
				}
				if hd.Busy() {
					return fmt.Errorf("gc: heap %d chunk %d: BUSY header at +%d outside a collection", h.ID, c.ID, off)
				}
			}
			off += 1 + n
		}
		if strict {
			if c.Marks() != nil {
				return fmt.Errorf("gc: heap %d chunk %d: mark state left installed outside a collection", h.ID, c.ID)
			}
			switch c.FromSpace {
			case mem.NotFromSpace:
			case mem.Survivor, mem.Keep:
				return fmt.Errorf("gc: heap %d chunk %d: in-place mark (%d) left set outside a collection", h.ID, c.ID, c.FromSpace)
			default:
				return fmt.Errorf("gc: heap %d chunk %d: from-space mark left set outside a collection", h.ID, c.ID)
			}
			if c.Tenured && c.FreeWordCount() != 0 {
				return fmt.Errorf("gc: heap %d chunk %d: Tenured with a swept free list", h.ID, c.ID)
			}
		}
	}
	var err error
	k := 0
	h.Remset.Each(func(e hierarchy.RememberedEntry) {
		if cerr := checkRemembered(sp, e); cerr != nil && err == nil {
			err = fmt.Errorf("gc: heap %d remset[%d]: %w", h.ID, k, cerr)
		}
		k++
	})
	return err
}

// describe names a chunk's owner for an error message.
func describe(h *hierarchy.Heap) string {
	if h == nil {
		return "none"
	}
	return fmt.Sprintf("heap %d", h.ID)
}

// checkRemembered verifies one remembered entry is well-formed: the holder
// resolves to a live chunk, its header parses, and the recorded index is
// inside the holder's payload. Entries may be stale (the field was
// overwritten) — that is legal; a holder that no longer parses is not.
func checkRemembered(sp *mem.Space, e hierarchy.RememberedEntry) error {
	c := sp.ChunkByID(e.Holder.Chunk())
	if c == nil || c.HeapID() == 0 {
		return fmt.Errorf("holder %v points into a released chunk", e.Holder)
	}
	hd := sp.Header(e.Holder)
	if !hd.Valid() || hd.Kind() > mem.KFree {
		return fmt.Errorf("holder %v has unparseable header %#x", e.Holder, uint64(hd))
	}
	if hd.Kind() == mem.KFree {
		// The holder was reclaimed in place by the concurrent sweep; the
		// entry is stale but harmless (collections skip KFree holders).
		return nil
	}
	if hd.Kind() == mem.KForward {
		return fmt.Errorf("holder %v is a stale forwarding header", e.Holder)
	}
	n := hd.Len()
	if n < 1 {
		n = 1
	}
	if e.Index < 0 || e.Index >= n {
		return fmt.Errorf("index %d outside holder %v payload (len %d)", e.Index, e.Holder, hd.Len())
	}
	return nil
}

// CheckDownPointers audits, at a quiescent point, the invariant that makes
// remembered sets complete and lets the write barrier record a field once
// (entangle.Manager.OnWrite): while a field of a heap A holds a reference into
// a heap H strictly deeper on A's path, (holder, index) is in H's Remset or
// publication buffer. The barrier records each such store before it happens,
// except one by H's own strand over a reference into H; H's collections keep
// an entry while its field points into H, and joins splice. Only reachable
// holders are held to it: the walk is Validate's, whose checks come along.
func CheckDownPointers(sp *mem.Space, tree *hierarchy.Tree) error {
	remembered := map[*hierarchy.Heap]map[hierarchy.RememberedEntry]bool{}
	return walk(sp, tree.Live(), func(holder mem.Ref, i int, x mem.Ref) error {
		a, h := hierarchy.OwnerOf(sp.ChunkOf(holder)), hierarchy.OwnerOf(sp.ChunkOf(x))
		if a == h || !tree.IsAncestor(a, h) {
			return nil
		}
		set := remembered[h]
		if set == nil {
			set = map[hierarchy.RememberedEntry]bool{}
			h.ForEachRemembered(func(e hierarchy.RememberedEntry) { set[e] = true })
			remembered[h] = set
		}
		if !set[hierarchy.RememberedEntry{Holder: holder, Index: i}] {
			return fmt.Errorf("gc: field %d of %v in heap %d points into heap %d, which does not remember it", i, holder, a.ID, h.ID)
		}
		return nil
	})
}

// CheckInvariants audits every live heap of the tree. strict (quiescent
// points only) adds gate, pin-listing and transient-bit checks per heap
// plus the reachability audit of Validate, which rejects any live path to
// a forwarding header.
func CheckInvariants(sp *mem.Space, tree *hierarchy.Tree, strict bool) error {
	live := tree.Live()
	for _, h := range live {
		if err := CheckHeap(sp, h, strict); err != nil {
			return err
		}
	}
	if strict {
		return Validate(sp, live)
	}
	return nil
}

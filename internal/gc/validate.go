package gc

import (
	"fmt"

	"mplgo/internal/hierarchy"
	"mplgo/internal/mem"
)

// Validate traces the live object graph from the given heaps' root sets
// and pinned objects, checking heap integrity; it is a testing aid used by
// the stress tests at quiescent points (e.g. the end of a computation,
// while the caller's frames still root the data of interest).
//
// Checked invariants, for every *reachable* object:
//
//   - the header parses: valid bit set, known kind, length within chunk;
//   - the object's chunk is owned by a live heap;
//   - the object is not a forwarding header: collections must redirect
//     every surviving reference before releasing their locks, so no live
//     path may reach a from-space remnant.
//
// Dead objects may legitimately hold stale references (their fields are
// never updated once unreachable), so the walk is reachability-based
// rather than a sweep of chunk contents.
func Validate(sp *mem.Space, heaps []*hierarchy.Heap) error { return walk(sp, heaps, nil) }

// walk is Validate, calling edge, when non-nil, for every reference field
// of a reachable object once the field's target has passed the checks.
func walk(sp *mem.Space, heaps []*hierarchy.Heap, edge func(holder mem.Ref, i int, x mem.Ref) error) error {
	seen := map[mem.Ref]bool{}
	var stack []mem.Ref

	check := func(r mem.Ref, what string) error {
		tc := sp.ChunkByID(r.Chunk())
		if tc == nil || tc.HeapID() == 0 {
			return fmt.Errorf("gc: %s %v points into a released chunk", what, r)
		}
		hd := sp.Header(r)
		if !hd.Valid() {
			return fmt.Errorf("gc: %s %v has invalid header %#x", what, r, uint64(hd))
		}
		if hd.Kind() == mem.KForward {
			return fmt.Errorf("gc: %s %v is a stale forwarding header", what, r)
		}
		if hd.Kind() > mem.KRaw {
			return fmt.Errorf("gc: %s %v has unknown kind %d", what, r, hd.Kind())
		}
		n := hd.Len()
		if n < 1 {
			n = 1
		}
		if r.Off()+1+n > tc.Words() {
			return fmt.Errorf("gc: %s %v overruns its chunk", what, r)
		}
		if !seen[r] {
			seen[r] = true
			stack = append(stack, r)
		}
		return nil
	}

	for _, h := range heaps {
		for _, rs := range h.RootSets {
			var rootErr error
			rs.Roots(func(p *mem.Value) {
				if rootErr == nil && p.IsRef() {
					rootErr = check(p.Ref(), "root")
				}
			})
			if rootErr != nil {
				return rootErr
			}
		}
		var pinErr error
		h.Pinned.Each(func(p mem.Ref) {
			if pinErr == nil && sp.Header(p).Pinned() {
				pinErr = check(p, "pinned object")
			}
		})
		if pinErr != nil {
			return pinErr
		}
	}

	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		hd := sp.Header(r)
		if !hd.Kind().Scanned() {
			continue
		}
		for i := 0; i < hd.Len(); i++ {
			v := sp.Load(r, i)
			if !v.IsRef() {
				continue
			}
			if err := check(v.Ref(), fmt.Sprintf("field %d of %v", i, r)); err != nil {
				return err
			}
			if edge != nil {
				if err := edge(r, i, v.Ref()); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

package gc

import (
	"fmt"
	"math/rand"
	"testing"

	"mplgo/internal/hierarchy"
	"mplgo/internal/mem"
)

// TestRemsetDuplicatesProperty drives one leaf under a root holder array
// with random down-pointer writes — the same field written again and
// again, nil-and-back, two fields to one target, targets pinned in place,
// fields overwritten with immediates — and collects the leaf between
// bursts. A target copied by one round lies in a Tenured chunk and stays
// put through the next, so its field is re-stored over rounds while its
// target does not move. The expectation comes from a reference that
// de-duplicates the entries by (holder, index) in a map before looking at
// any of them, which is what the collector did before forward became
// idempotent:
//
//   - every live field points at its target's current location, and two
//     fields that shared a target still do;
//   - a target stays where it is if it is pinned or shares a chunk with a
//     pinned object (the chunk is kept, so nothing in it moves), lies in
//     a Tenured chunk, or lies in a chunk that the distinct targets of the
//     entries fill at least half of, none reached by two entries; every
//     other live target moves;
//   - the rebuilt remset holds exactly one entry per live field, whether
//     its target moved or stayed, and none for any other field;
//   - CopiedWords is the reference's: no duplicate copies a target twice;
//   - no from-space mark, in-place mark state or BUSY bit is left (strict
//     CheckHeap).
//
// Over the seeds, some field must come to a collection with more than one
// entry while its target stays, or the property has not been exercised. The
// dense seeds make every other step a fresh target, and most steps that
// would repeat an entry too, over more fields and steps, so that a round's
// targets fill about half of its chunk; some target must stay for that
// reason alone.
func TestRemsetDuplicatesProperty(t *testing.T) {
	repeats, dense := 0, 0
	for seed := int64(1); seed <= 30; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			r, _ := remsetProperty(t, seed, false)
			repeats += r
		})
	}
	for seed := int64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprint("dense/seed", seed), func(t *testing.T) {
			_, d := remsetProperty(t, seed, true)
			dense += d
		})
	}
	if repeats == 0 {
		t.Fatal("no field came to a collection with repeated entries for a target that stays")
	}
	if dense == 0 {
		t.Fatal("no target stayed in a chunk its remembered targets fill")
	}
}

// remsetProperty runs one seed and returns how many times a field came to a
// collection with more than one entry while its target stayed in place, and
// how many targets stayed only because the remembered targets fill their
// chunk.
func remsetProperty(t *testing.T, seed int64, fresh bool) (repeats, dense int) {
	fields, steps := 12, 40
	if fresh {
		fields, steps = 96, 80
	}
	type object struct {
		id     mem.Value // payload word 0
		ref    mem.Ref
		words  int64 // header + payload
		pinned bool
	}
	rng := rand.New(rand.NewSource(seed))
	w := newWorld()
	root := w.tr.Root()
	leaf := w.tr.Fork(root)
	rootHA := w.onHeap(root)
	holder := rootHA.al.AllocArray(fields, mem.Nil)
	w.sp.SetCandidate(holder)
	rootHA.adopt()

	var objs []*object
	field := make([]*object, fields) // nil: the field holds no reference

	point := func(f int, o *object) {
		w.sp.Store(holder, f, o.ref.Value())
		recorded := field[f] != nil
		field[f] = o
		if fresh && recorded {
			return // a dense seed's barrier records a field once
		}
		if rng.Intn(2) == 0 {
			leaf.AddRemembered(holder, f) // as a foreign writer publishes
		} else {
			leaf.AddRememberedLocal(holder, f)
		}
	}

	for round := 0; round < 8; round++ {
		ha := w.onHeap(leaf)
		for step := 0; step < steps; step++ {
			f := rng.Intn(fields)
			op := rng.Intn(8)
			if fresh && (rng.Intn(2) == 0 || op >= 2 && op <= 4 && rng.Intn(16) != 0) {
				op = 0
			}
			switch {
			case op < 2 || len(objs) == 0: // a fresh target
				n := 1 + rng.Intn(5)
				payload := make([]mem.Value, n)
				payload[0] = mem.Int(int64(len(objs)))
				o := &object{id: payload[0], ref: ha.al.AllocTuple(payload...), words: int64(n + 1)}
				objs = append(objs, o)
				point(f, o)
			case op == 2: // the same store, k times over
				if o := field[f]; o != nil {
					for k := rng.Intn(6); k >= 0; k-- {
						point(f, o)
					}
				}
			case op == 3: // nil and back
				if o := field[f]; o != nil {
					w.sp.Store(holder, f, mem.Nil)
					point(f, o)
				}
			case op == 4: // a second field to a target some field already has
				if o := field[rng.Intn(fields)]; o != nil {
					point(f, o)
				}
			case op == 5: // overwritten with an immediate: the entries go dead
				w.sp.Store(holder, f, mem.Int(int64(step)))
				field[f] = nil
			case op == 6: // pinned through a cross-pointer, as in churn-pinned
				if o := field[f]; o != nil && !o.pinned {
					w.sp.Pin(o.ref, 0)
					leaf.AddPinned(o.ref)
					o.pinned = true
				}
			case op == 7: // unpinned as a join would: header and list entry together
				if o := field[f]; o != nil && o.pinned {
					w.sp.Unpin(o.ref)
					leaf.DrainBuffers()
					leaf.Pinned.Filter(func(r mem.Ref) bool { return r != o.ref })
					o.pinned = false
				}
			}
		}
		ha.adopt()

		// The reference: distinct entries first, then their targets once.
		leaf.DrainBuffers()
		before := map[int]int{}
		leaf.Remset.Each(func(e hierarchy.RememberedEntry) {
			if e.Holder != holder {
				t.Fatalf("round %d: entry %+v names a holder nobody recorded", round, e)
			}
			before[e.Index]++
		})
		keptChunks := map[*mem.Chunk]bool{}
		leaf.Pinned.Each(func(r mem.Ref) {
			if w.sp.Header(r).Pinned() {
				keptChunks[w.sp.ChunkOf(r)] = true
			}
		})
		stays := map[*object]bool{}
		for _, o := range field {
			if o != nil && (o.pinned || keptChunks[w.sp.ChunkOf(o.ref)] || w.sp.ChunkOf(o.ref).Tenured) {
				stays[o] = true
			}
		}
		reached := map[*object]int{} // entries per live target
		for f, n := range before {
			if o := field[f]; o != nil {
				reached[o] += n
			}
		}
		filled, refused := map[*mem.Chunk]int64{}, map[*mem.Chunk]bool{}
		for o, n := range reached {
			if c := w.sp.ChunkOf(o.ref); !stays[o] {
				filled[c] += o.words
				refused[c] = refused[c] || n > 1
			}
		}
		for o := range reached {
			if c := w.sp.ChunkOf(o.ref); !stays[o] && !refused[c] && 2*filled[c] >= int64(c.Words()) {
				stays[o] = true
				dense++
			}
		}
		var wantCopied int64
		moves := map[*object]bool{} // targets the reference copies, once each
		for f := range before {
			if o := field[f]; o != nil && !stays[o] && !moves[o] {
				moves[o] = true
				wantCopied += o.words
			}
		}

		res := w.c.Collect([]*hierarchy.Heap{leaf})

		if res.CopiedWords != wantCopied {
			t.Fatalf("round %d: CopiedWords = %d, reference copies %d", round, res.CopiedWords, wantCopied)
		}
		after := map[int]int{}
		leaf.Remset.Each(func(e hierarchy.RememberedEntry) { after[e.Index]++ })
		for f := 0; f < fields; f++ {
			o := field[f]
			v := w.sp.Load(holder, f)
			switch {
			case o == nil:
				if v.IsRef() || after[f] != 0 {
					t.Fatalf("round %d field %d: dead field holds %v with %d entries", round, f, v, after[f])
				}
				continue
			case !v.IsRef():
				t.Fatalf("round %d field %d: reference lost (%v)", round, f, v)
			case stays[o]:
				if v.Ref() != o.ref {
					t.Fatalf("round %d field %d: target kept in place moved %v -> %v", round, f, o.ref, v.Ref())
				}
				if after[f] != 1 {
					t.Fatalf("round %d field %d: target kept in place has %d entries, had %d", round, f, after[f], before[f])
				}
				if before[f] > 1 {
					repeats++
				}
			default:
				if moves[o] { // the first field of o looked at: learn where it went
					if v.Ref() == o.ref {
						t.Fatalf("round %d field %d: live target %v not moved", round, f, o.ref)
					}
					o.ref = v.Ref()
					delete(moves, o)
				}
				if v.Ref() != o.ref {
					t.Fatalf("round %d field %d: points at %v, its target is now at %v", round, f, v.Ref(), o.ref)
				}
				if after[f] != 1 {
					t.Fatalf("round %d field %d: %d entries for a moved target (%d before)", round, f, after[f], before[f])
				}
			}
			if hd := w.sp.Header(v.Ref()); hd.Kind() != mem.KTuple || int64(hd.Len()+1) != o.words ||
				w.sp.Load(v.Ref(), 0) != o.id {
				t.Fatalf("round %d field %d: target corrupted (header %#x)", round, f, uint64(hd))
			}
		}
		for _, h := range []*hierarchy.Heap{root, leaf} {
			if err := CheckHeap(w.sp, h, true); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
	return repeats, dense
}

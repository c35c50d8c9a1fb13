package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"mplgo/internal/chaos"
	"mplgo/internal/entangle"
	"mplgo/internal/gc"
	"mplgo/internal/hierarchy"
	"mplgo/internal/mem"
	"mplgo/internal/workload"
)

// A branch that overwrites what it published — counter's leaves, CASing a
// fresh box over their own last one — records each field once and counts
// the boxes it displaces (Heap.Overwritten); once those pass half the
// budget, the branch's heap is collected as the branch returns (Task.settle).
// A branch that only fills empty slots — memoize, bfs, a pipeline's producer
// — counts nothing overwritten; its heap, kept by what it published, is
// collected there only once its own allocation since the heap's last
// collection passes half the budget. A heap its release drops is never
// collected there.

// counterCAS increments cell i of the array in cells' slot 0 n times, as
// counter's leaves do: from its second increment on, each overwrites the
// box this branch published last. It returns the last box. The box read is
// kept in a frame across the allocation: a collection may move it and
// recycle its old address for a box another strand then stores in the cell,
// and a CAS against the stale address would succeed and lose an update.
func counterCAS(t *Task, cells Frame, i, n int) mem.Value {
	b := t.NewFrame(1)
	defer b.Pop()
	var nb mem.Ref
	for k := 0; k < n; k++ {
		for {
			b.Set(0, t.Read(cells.Ref(0), i))
			nb = t.AllocTuple(mem.Int(t.Read(b.Ref(0), 0).AsInt() + 1))
			if t.CAS(cells.Ref(0), i, b.Get(0), nb.Value()) {
				break
			}
		}
	}
	return nb.Value()
}

// fillSlots publishes a box into each empty slot in [lo, hi) of the array
// in slots' slot 0: by CAS from Nil as memoize does, or after a read that
// finds Nil as bfs does.
func fillSlots(t *Task, slots Frame, lo, hi int, readFirst bool) {
	for i := lo; i < hi; i++ {
		if readFirst && !t.Read(slots.Ref(0), i).IsNil() {
			continue
		}
		t.CAS(slots.Ref(0), i, mem.Nil, t.AllocTuple(mem.Int(int64(i))).Value())
	}
}

// counterCells allocates an array of n cells in t's heap, each holding a
// zero box, in a fresh frame.
func counterCells(t *Task, n int) Frame {
	f := t.NewFrame(1)
	f.Set(0, t.AllocArray(n, mem.Nil).Value())
	for i := 0; i < n; i++ {
		b := t.AllocTuple(mem.Int(0)) // before f.Ref: the allocation may move the array
		t.Write(f.Ref(0), i, b.Value())
	}
	return f
}

// auditDownPointers panics unless gc.CheckDownPointers holds. Call it only
// where every other strand is suspended: at one worker.
func auditDownPointers(t *Task) {
	if err := gc.CheckDownPointers(t.rt.space, t.rt.tree); err != nil {
		panic(err)
	}
}

// collectionsDuring returns how many local collections body ran.
func collectionsDuring(rt *Runtime, body func()) int64 {
	before, _, _ := rt.GCStats()
	body()
	after, _, _ := rt.GCStats()
	return after - before
}

// TestSettleCollectsOnlyOverwritingBranches: a counter-shaped branch
// collects at its finish on its overwritten words alone, 3 000 words
// allocated under a 4 096-word budget. Slot-filling branches overwrite
// nothing: the two that allocate 2 000 words, under half the budget, never
// collect there; the one that allocates 3 000, over half, collects exactly
// once, at its return, and its boxes survive in their slots.
func TestSettleCollectsOnlyOverwritingBranches(t *testing.T) {
	const n = 1500     // 3 000 words allocated, over half the 4 096 budget
	const under = 1000 // 2 000 words, under half
	runDrops(t, Config{Procs: 1, HeapBudgetWords: 4096}, func(tk *Task) error {
		rt := tk.rt
		cells := counterCells(tk, 1)
		defer cells.Pop()
		slots := tk.NewFrame(1)
		defer slots.Pop()
		slots.Set(0, tk.AllocArray(2*under+n, mem.Nil).Value())
		nop := func(*Task) mem.Value { return mem.Nil }

		counter := func(t *Task) mem.Value {
			v := counterCAS(t, cells, 0, n)
			auditDownPointers(t)
			return v
		}
		if c := collectionsDuring(rt, func() { tk.Par(counter, nop) }); c != 1 {
			return fmt.Errorf("counter-shaped branch: %d collections, want 1 at its finish", c)
		}
		if got := tk.Read(tk.Read(cells.Ref(0), 0).Ref(), 0).AsInt(); got != n {
			return fmt.Errorf("counter reads %d after the collection, want %d", got, n)
		}
		for k, readFirst := range []bool{false, true} {
			if c := collectionsDuring(rt, func() {
				tk.Par(func(t *Task) mem.Value { fillSlots(t, slots, k*under, (k+1)*under, readFirst); return mem.Nil }, nop)
			}); c != 0 {
				return fmt.Errorf("slot-filling branch under half the budget (read first: %v): %d collections, want 0", readFirst, c)
			}
		}
		var during int64
		if c := collectionsDuring(rt, func() {
			tk.Par(func(t *Task) mem.Value {
				during = collectionsDuring(rt, func() { fillSlots(t, slots, 2*under, 2*under+n, false) })
				return mem.Nil
			}, nop)
		}); c != 1 || during != 0 {
			return fmt.Errorf("slot-filling branch over half the budget: %d collections, %d before its return, want 1 at its return", c, during)
		}
		for i := 0; i < 2*under+n; i++ {
			if got := tk.Read(tk.Read(slots.Ref(0), i).Ref(), 0).AsInt(); got != int64(i) {
				return fmt.Errorf("slot %d reads %d", i, got)
			}
		}
		if tk.heap.Overwritten != 0 {
			return fmt.Errorf("parent's estimate %d after joining a collected and three slot-filling branches", tk.heap.Overwritten)
		}
		return tk.ValidateHeaps()
	})
}

// TestSettleCollectsKeptHeapPastHalfBudget is churn-pinned's shape: a branch
// publishes one small box into its parent through a down-pointer, builds a
// list it drops and churns past half the budget, and returns. The
// down-pointer keeps its heap, so it collects once, at its return, and its
// heap merges holding fewer words than the list. A sibling that publishes
// nothing and allocates as much is dropped uncollected.
func TestSettleCollectsKeptHeapPastHalfBudget(t *testing.T) {
	const cells, garbage = 500, 200 // 2 + 1 500 + 600 words, over half the 4 096 budget
	runDrops(t, Config{Procs: 1, HeapBudgetWords: 4096}, func(tk *Task) error {
		rt := tk.rt
		mailbox := tk.NewFrame(1)
		defer mailbox.Pop()
		mailbox.Set(0, tk.AllocArray(1, mem.Nil).Value())
		nop := func(*Task) mem.Value { return mem.Nil }
		var during int64
		branch := func(publish bool) func(*Task) mem.Value {
			return func(t *Task) mem.Value {
				during = collectionsDuring(rt, func() {
					b := t.AllocTuple(mem.Int(7))
					if publish {
						t.Write(mailbox.Ref(0), 0, b.Value())
					}
					list := t.NewFrame(1)
					for i := 0; i < cells; i++ {
						list.Set(0, t.AllocTuple(mem.Int(int64(i)), list.Get(0)).Value())
					}
					list.Pop()
					churn(t, garbage)
				})
				return mem.Nil
			}
		}

		before := rt.space.LiveWords()
		var dropped int64
		if c := collectionsDuring(rt, func() { dropped, _, _ = dropsOf(tk, branch(true), nop) }); c != 1 || during != 0 {
			return fmt.Errorf("publishing branch: %d collections, %d before its return, want 1 at its return", c, during)
		}
		if dropped != 1 {
			return fmt.Errorf("the join dropped %d heaps, want only the empty sibling's", dropped)
		}
		if merged := rt.space.LiveWords() - before; merged >= 3*cells {
			return fmt.Errorf("the publishing branch's heap merged holding %d words, the list it dropped %d", merged, 3*cells)
		}
		if got := tk.Read(tk.Read(mailbox.Ref(0), 0).Ref(), 0).AsInt(); got != 7 {
			return fmt.Errorf("the published box reads %d after the collection, want 7", got)
		}

		if c := collectionsDuring(rt, func() { dropped, _, _ = dropsOf(tk, branch(false), nop) }); c != 0 {
			return fmt.Errorf("silent branch: %d collections, want 0", c)
		}
		if dropped != 2 {
			return fmt.Errorf("the join dropped %d heaps, want both", dropped)
		}
		return tk.ValidateHeaps()
	})
}

// TestSettleKeepsResultIntoCollectedHeap: the branch's result is rooted
// across its finish collection, and since the result points into the
// branch's heap, its join merges that heap.
func TestSettleKeepsResultIntoCollectedHeap(t *testing.T) {
	runDrops(t, Config{Procs: 1, HeapBudgetWords: 4096}, func(tk *Task) error {
		cells := counterCells(tk, 1)
		defer cells.Pop()
		var dropped int64
		var lv mem.Value
		if c := collectionsDuring(tk.rt, func() {
			dropped, lv, _ = dropsOf(tk,
				func(t *Task) mem.Value {
					counterCAS(t, cells, 0, 1500)
					churn(t, 200) // garbage between the result and the box it names
					return t.AllocTuple(mem.Int(99), t.Read(cells.Ref(0), 0)).Value()
				},
				func(t *Task) mem.Value { return mem.Nil },
			)
		}); c != 1 {
			return fmt.Errorf("%d collections, want 1 at the branch's finish", c)
		}
		if dropped != 1 {
			return fmt.Errorf("the join dropped %d heaps, want only the empty sibling's", dropped)
		}
		if hierarchy.OwnerOf(tk.rt.space.ChunkOf(lv.Ref())) != tk.heap {
			return errors.New("the result's chunk did not merge into the parent")
		}
		if tk.Read(lv.Ref(), 0).AsInt() != 99 || tk.Read(tk.Read(lv.Ref(), 1).Ref(), 0).AsInt() != 1500 {
			return errors.New("the result did not survive its branch's collection")
		}
		if tk.Read(lv.Ref(), 1) != tk.Read(cells.Ref(0), 0) {
			return errors.New("the result and the cell no longer name the same box")
		}
		return tk.ValidateHeaps()
	})
}

// TestSettleNeverWithoutItsPreconditions: no finish collection with
// collections off, with the barriers off (nothing is counted) or after a
// runtime-wide cancel, neither for a branch that overwrote what it published
// nor for one that published a box and allocated past half the budget.
func TestSettleNeverWithoutItsPreconditions(t *testing.T) {
	for _, c := range []struct {
		name   string
		cfg    Config
		cancel bool
	}{
		{"DisableGC", Config{Procs: 1, HeapBudgetWords: 4096, DisableGC: true}, false},
		{"Unsafe", Config{Procs: 1, HeapBudgetWords: 4096, Mode: entangle.Unsafe}, false},
		{"Cancel", Config{Procs: 1, HeapBudgetWords: 4096}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			rt := New(c.cfg)
			var overwritten, allocated int64
			_, err := rt.Run(func(tk *Task) mem.Value {
				cells := counterCells(tk, 1)
				defer cells.Pop()
				tk.Par(func(t *Task) mem.Value {
					counterCAS(t, cells, 0, 1500)
					overwritten = t.heap.Overwritten
					if c.cancel {
						t.Runtime().Cancel()
					}
					return mem.Nil
				}, func(t *Task) mem.Value {
					// Publishes a box over the counter's (the cell is not
					// its own: nothing is counted overwritten), then churns
					// 2 100 words, over half the budget.
					t.Write(cells.Ref(0), 0, t.AllocTuple(mem.Int(0)).Value())
					churn(t, 700)
					allocated = t.sinceGC
					return mem.Nil
				})
				return mem.Nil
			})
			if c.cancel != errors.Is(err, ErrCancelled) || !c.cancel && err != nil {
				t.Fatalf("Run = %v", err)
			}
			if n, _, _ := rt.GCStats(); n != 0 {
				t.Fatalf("%d collections", n)
			}
			if want := c.cfg.Mode != entangle.Unsafe; (overwritten > 2048) != want {
				t.Fatalf("the branch counted %d overwritten words", overwritten)
			}
			if !c.cancel && allocated <= 2048 {
				t.Fatalf("the publishing branch allocated %d words", allocated)
			}
		})
	}
}

// TestOverwrittenResetAndPropagated: a collection of the heap resets its
// estimate, so a branch collected by its budget after overwriting does not
// collect again at its finish; and a merging join adds the child's estimate
// to the parent's, so two leaves under half the budget each make their
// parent branch collect at its finish.
func TestOverwrittenResetAndPropagated(t *testing.T) {
	runDrops(t, Config{Procs: 1, HeapBudgetWords: 4096}, func(tk *Task) error {
		rt := tk.rt
		cells := counterCells(tk, 2)
		defer cells.Pop()
		nop := func(*Task) mem.Value { return mem.Nil }

		var after int64
		if c := collectionsDuring(rt, func() {
			tk.Par(func(t *Task) mem.Value {
				counterCAS(t, cells, 0, 1200) // 2 398 words overwritten, 2 400 allocated
				churn(t, 1200)                // crosses the budget: one collection
				after = t.heap.Overwritten
				return mem.Nil
			}, nop)
		}); c != 1 || after != 0 {
			return fmt.Errorf("reset: %d collections with %d words still counted, want 1 and 0", c, after)
		}

		var leaves [2]int64
		if c := collectionsDuring(rt, func() {
			tk.Par(func(t *Task) mem.Value {
				t.Par(
					func(t *Task) mem.Value { counterCAS(t, cells, 0, 700); leaves[0] = t.heap.Overwritten; return mem.Nil },
					func(t *Task) mem.Value { counterCAS(t, cells, 1, 700); leaves[1] = t.heap.Overwritten; return mem.Nil },
				)
				return mem.Nil
			}, nop)
		}); c != 1 || leaves[0]+leaves[1] <= 2048 || max(leaves[0], leaves[1]) > 2048 {
			return fmt.Errorf("propagation: %d collections for leaves counting %v, want 1 at their parent's finish", c, leaves)
		}
		return tk.ValidateHeaps()
	})
}

// TestOverwriteCollectProperty runs random fork trees whose branches are
// counter-, memo- and pipeline-shaped, at a 256-word budget so that finish
// collections fire, at 1, 2 and 4 workers, with and without the chaos soak
// preset. A leaf mixes CAS and Write over the root's cells: fresh boxes of
// its own over its own, another heap's or Nil; boxes of its ancestors; boxes
// read from cells other heaps wrote; Nil. Results point into the branch's
// heap, out of it, or at nothing, and the parent stores some of them back.
// At 1 worker every other strand is suspended, so the leaves audit the
// remembered-set invariant (gc.CheckDownPointers) between their steps. Every
// run checks each value it reads and, at the end, every cell, the counters'
// sum, ValidateHeaps, the invariant, pins == unpins and the strict audit.
func TestOverwriteCollectProperty(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	opts := chaos.Soak()
	var settles int64
	for _, procs := range []int{1, 2, 4} {
		for seed := 1; seed <= seeds; seed++ {
			for _, soak := range []bool{false, true} {
				name := fmt.Sprintf("procs%d/seed%d/soak=%v", procs, seed, soak)
				cfg := Config{Procs: procs, HeapBudgetWords: 256, Seed: int64(seed)}
				if soak {
					cfg.Chaos = &opts
				}
				p := &owProgram{quiet: procs == 1, budget: cfg.HeapBudgetWords}
				rt := New(cfg)
				var verr error
				_, err := rt.Run(func(tk *Task) mem.Value { verr = p.run(tk, uint64(seed)); return mem.Nil })
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if verr != nil {
					t.Fatalf("%s: %v", name, verr)
				}
				if s := rt.EntStats(); s.Pins != s.Unpins {
					t.Fatalf("%s: pins %d != unpins %d", name, s.Pins, s.Unpins)
				}
				if err := rt.CheckInvariants(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				settles += p.settles.Load()
			}
		}
	}
	if settles == 0 {
		t.Fatal("no branch finished with enough overwritten words to collect")
	}
}

// owProgram is one run of TestOverwriteCollectProperty. The root's cells:
// counters (boxes (count)), board (Nil or boxes (id, 7·id)) and slots
// (write-once: Nil or (i, 7·i), by CAS or by Write).
type owProgram struct {
	quiet      bool // 1 worker: every other strand is suspended, so leaves may audit
	budget     int64
	roots      Frame // counters, board, slots
	ids        atomic.Int64
	increments atomic.Int64
	settles    atomic.Int64 // branches that finished past half the budget
}

const owCounters, owBoard, owSlots = 8, 32, 64

// audit checks the remembered-set invariant mid-run, where that is safe.
func (p *owProgram) audit(t *Task) {
	if p.quiet {
		auditDownPointers(t)
	}
}

// box allocates a fresh checkable box.
func (p *owProgram) box(t *Task) mem.Value {
	id := p.ids.Add(1)
	return t.AllocTuple(mem.Int(id), mem.Int(7*id)).Value()
}

// checkBox panics unless v is Nil or a well-formed box with the given id
// (any id when id < 0).
func checkBox(t *Task, v mem.Value, id int64) {
	if !v.IsRef() {
		return
	}
	a, b := t.Read(v.Ref(), 0).AsInt(), t.Read(v.Ref(), 1).AsInt()
	if b != 7*a || id >= 0 && a != id {
		panic(fmt.Sprintf("box %v reads (%d, %d), want id %d", v, a, b, id))
	}
}

func (p *owProgram) run(tk *Task, seed uint64) error {
	p.roots = tk.NewFrame(3)
	defer p.roots.Pop()
	p.roots.Set(0, tk.AllocArray(owCounters, mem.Nil).Value())
	for i := 0; i < owCounters; i++ {
		b := tk.AllocTuple(mem.Int(0))
		tk.Write(p.roots.Ref(0), i, b.Value())
	}
	p.roots.Set(1, tk.AllocArray(owBoard, mem.Nil).Value())
	p.roots.Set(2, tk.AllocArray(owSlots, mem.Nil).Value())
	v := p.node(tk, workload.NewRNG(seed), 4, nil)
	checkBox(tk, v, -1)

	var sum int64
	for i := 0; i < owCounters; i++ {
		sum += tk.Read(tk.Read(p.roots.Ref(0), i).Ref(), 0).AsInt()
	}
	if sum != p.increments.Load() {
		return fmt.Errorf("counters sum to %d after %d increments", sum, p.increments.Load())
	}
	for i := 0; i < owBoard; i++ {
		checkBox(tk, tk.Read(p.roots.Ref(1), i), -1)
	}
	for i := 0; i < owSlots; i++ {
		checkBox(tk, tk.Read(p.roots.Ref(2), i), int64(i))
	}
	if err := tk.ValidateHeaps(); err != nil {
		return err
	}
	return gc.CheckDownPointers(tk.rt.space, tk.rt.tree)
}

// node is one node of the random tree at the given remaining depth; anc
// holds the frames of its ancestors' own boxes. It returns its result.
func (p *owProgram) node(t *Task, rng *workload.RNG, depth int, anc []Frame) mem.Value {
	own := t.NewFrame(1)
	defer own.Pop()
	own.Set(0, p.box(t))
	anc = append(anc[:len(anc):len(anc)], own)
	var v mem.Value
	if depth == 0 || len(anc) > 1 && rng.Intn(4) == 0 { // the root forks: its arrays stay put
		v = p.leaf(t, rng, anc)
	} else {
		ls, rs := rng.Next(), rng.Next()
		lv, rv := t.Par(
			func(t *Task) mem.Value { return p.node(t, workload.NewRNG(ls), depth-1, anc) },
			func(t *Task) mem.Value { return p.node(t, workload.NewRNG(rs), depth-1, anc) },
		)
		res := t.NewFrame(2)
		defer res.Pop()
		res.Set(0, lv)
		res.Set(1, rv)
		checkBox(t, lv, -1)
		checkBox(t, rv, -1)
		if rng.Intn(2) == 0 {
			t.Write(p.roots.Ref(1), rng.Intn(owBoard), res.Get(rng.Intn(2)))
		}
		switch rng.Intn(4) {
		case 0:
			v = res.Get(0)
		case 1:
			v = res.Get(1)
		case 2:
			v = own.Get(0)
		default:
			v = mem.Int(int64(depth))
		}
	}
	if t.heap.Overwritten > p.budget/2 && t.heap != t.rt.tree.Root() {
		p.settles.Add(1)
	}
	return v
}

// leaf is a counter-, memo- or pipeline-shaped leaf with board stores mixed
// in. It returns a box of its own, an ancestor's, one read off the board,
// or Nil.
func (p *owProgram) leaf(t *Task, rng *workload.RNG, anc []Frame) mem.Value {
	shape := rng.Intn(3)
	mine := t.NewFrame(1) // this leaf's latest box
	defer mine.Pop()
	board, slots := p.roots.Ref(1), p.roots.Ref(2) // the root's heap stays put while it has children
	for step := 0; step < 80; step++ {
		op := rng.Intn(16)
		if op >= 10 {
			op = 10 + shape // the leaf's own shape, six times in sixteen
		}
		f := rng.Intn(owBoard)
		switch op {
		case 10: // counter: CAS fresh boxes over the cell's
			c := rng.Intn(owCounters)
			for k := 1 + rng.Intn(8); k > 0; k-- {
				counterCAS(t, p.roots, c, 1)
				p.increments.Add(1)
				p.audit(t)
			}
		case 11: // memo: fill a slot by CAS from Nil
			i := rng.Intn(owSlots)
			if s := t.Read(slots, i); s.IsRef() {
				checkBox(t, s, int64(i))
			} else {
				t.CAS(slots, i, mem.Nil, t.AllocTuple(mem.Int(int64(i)), mem.Int(7*int64(i))).Value())
			}
		case 12: // pipeline: publish into a slot by Write, read a later one
			i := rng.Intn(owSlots)
			if t.Read(slots, i).IsNil() {
				t.Write(slots, i, t.AllocTuple(mem.Int(int64(i)), mem.Int(7*int64(i))).Value())
			}
			checkBox(t, t.Read(slots, (i+1)%owSlots), int64((i+1)%owSlots))
		case 0: // a fresh box of this leaf's over whatever the cell holds
			mine.Set(0, p.box(t))
			t.Write(board, f, mine.Get(0))
		case 1: // the same, by CAS against what the cell holds
			nb := p.box(t)
			old := t.Read(board, f) // read after the allocation: nothing moves before the CAS
			checkBox(t, old, -1)
			if t.CAS(board, f, old, nb) {
				mine.Set(0, nb)
			}
		case 2: // an ancestor's box
			t.Write(board, f, anc[rng.Intn(len(anc))].Get(0))
		case 3: // Nil
			t.Write(board, f, mem.Nil)
		case 4, 5: // another cell's box, perhaps another heap's (an entangled read)
			v := t.Read(board, rng.Intn(owBoard))
			checkBox(t, v, -1)
			t.Write(board, f, v)
		case 6: // this leaf's latest box again
			t.Write(board, f, mine.Get(0))
		case 7:
			churn(t, 5)
		default:
			checkBox(t, t.Read(board, f), -1)
		}
		p.audit(t)
	}
	switch rng.Intn(4) {
	case 0:
		return mine.Get(0)
	case 1:
		return anc[rng.Intn(len(anc))].Get(0)
	case 2:
		return t.Read(board, rng.Intn(owBoard))
	}
	return mem.Nil
}

package hierarchy

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"mplgo/internal/mem"
)

// items copies a list out for assertions.
func items[T any](l *List[T]) []T {
	var out []T
	l.Each(func(v T) { out = append(out, v) })
	return out
}

// adoptOrder is the order List.adopt gives the entries of a stack that saw
// pushed, in that order, from one goroutine: segments newest first, push
// order within a segment.
func adoptOrder(pushed []int) []int {
	var out []int
	for end := len(pushed); end > 0; {
		start := (end - 1) / segCap * segCap
		out = append(out, pushed[start:end]...)
		end = start
	}
	return out
}

// runListOps interprets ops — two bytes each, an opcode and an argument —
// over three lists and two publication stacks, each mirrored by a slice,
// and checks after every step that order and Len agree with the model, that
// every chain is well formed, and that no segment belongs to two lists.
func runListOps(t *testing.T, ops []byte) {
	var (
		lists  [3]List[int]
		model  [3][]int
		stacks [2]stack[int]
		pushed [2][]int
		next   int
	)
	for ; len(ops) >= 2; ops = ops[2:] {
		a, b, k := int(ops[1])%3, int(ops[1]>>2)%3, int(ops[1]>>4)
		switch ops[0] % 7 {
		case 0: // append a run, long enough to cross segments
			for i := 0; i < 3*k+1; i++ {
				next++
				lists[a].Append(next)
				model[a] = append(model[a], next)
			}
		case 1: // splice b onto a; b may be empty
			if a == b {
				continue
			}
			lists[a].Splice(&lists[b])
			model[a] = append(model[a], model[b]...)
			model[b] = nil
		case 2: // publish through a stack
			for i := 0; i < 2*k+1; i++ {
				next++
				stacks[a%2].push(next)
				pushed[a%2] = append(pushed[a%2], next)
			}
		case 3: // drain: the list adopts the stack's segments
			lists[b].adopt(&stacks[a%2])
			model[b] = append(model[b], adoptOrder(pushed[a%2])...)
			pushed[a%2] = nil
		case 4:
			lists[a].Reset()
			model[a] = nil
		case 5:
			keep := func(v int) bool { return v%(k+2) != 0 }
			lists[a].Filter(keep)
			model[a] = slices.DeleteFunc(model[a], func(v int) bool { return !keep(v) })
		case 6: // a list value moves by assignment
			if a == b {
				continue
			}
			lists[a], lists[b] = lists[b], List[int]{}
			model[a], model[b] = model[b], nil
		}

		owner := map[*seg[int]]int{}
		for i := range lists {
			l := &lists[i]
			if got := items(l); !slices.Equal(got, model[i]) || l.Len() != len(model[i]) {
				t.Fatalf("list %d after op %d/%d: Len %d, entries %v; model has %d: %v",
					i, ops[0]%7, ops[1], l.Len(), got, len(model[i]), model[i])
			}
			var last *seg[int]
			for sg := l.head; sg != nil; sg = sg.next {
				if j, dup := owner[sg]; dup {
					t.Fatalf("a segment is linked from list %d and list %d", j, i)
				}
				owner[sg] = i
				if sg.n < 1 || sg.n > segCap {
					t.Fatalf("list %d holds a segment with count %d", i, sg.n)
				}
				last = sg
			}
			if l.tail != last {
				t.Fatalf("list %d: tail is not the last segment of the chain", i)
			}
		}
	}
}

// FuzzList is the model test of the segmented list under go's fuzzer; the
// checked-in corpus is under testdata/fuzz/FuzzList.
func FuzzList(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0x50, 1, 0x04, 1, 0x01}) // append, splice away, splice from the now-empty list
	f.Fuzz(func(t *testing.T, ops []byte) { runListOps(t, ops) })
}

func TestListModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		ops := make([]byte, 2*(1+rng.Intn(200)))
		rng.Read(ops)
		runListOps(t, ops)
	}
}

// TestAdoptConcurrentPushers: entries pushed from several goroutines into
// one stack, overshooting full segments under contention, all arrive in the
// adopting list exactly once.
func TestAdoptConcurrentPushers(t *testing.T) {
	const pushers, each = 4, 2000
	var s stack[int]
	var wg sync.WaitGroup
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				s.push(p*each + i)
			}
		}(p)
	}
	wg.Wait()
	var l List[int]
	l.Append(-1)
	l.adopt(&s)
	got := items(&l)
	slices.Sort(got)
	if l.Len() != pushers*each+1 || len(got) != l.Len() {
		t.Fatalf("Len %d, visited %d, want %d", l.Len(), len(got), pushers*each+1)
	}
	for i, v := range got {
		if v != i-1 {
			t.Fatalf("entry %d of the sorted list is %d", i, v)
		}
	}
	if s.take() != nil {
		t.Fatal("stack not empty after adopt")
	}
}

// mergeAllocs returns the allocations of one Tree.Merge of a child holding
// rem remembered entries (half recorded locally, half published) and pins
// objects that stay pinned past the join.
func mergeAllocs(t *testing.T, rem, pins int) float64 {
	const runs = 5
	tr, sp := New(), mem.NewSpace()
	mid := tr.Fork(tr.Root())
	holder := mem.NewAllocator(sp, mid.ID).AllocArray(1, mem.Nil)
	children := make([]*Heap, runs+1) // AllocsPerRun warms up with one extra call
	for i := range children {
		c := tr.Fork(mid)
		al := mem.NewAllocator(sp, c.ID)
		for j := 0; j < pins; j++ {
			r := al.AllocRef(mem.Int(int64(j)))
			sp.Pin(r, 0) // unpins at the root join, not this one
			c.AddPinned(r)
		}
		c.Chunks = al.Chunks
		for j := 0; j < rem; j += 2 {
			c.AddRememberedLocal(holder, 0)
			c.AddRemembered(holder, 0)
		}
		children[i] = c
	}
	// The chunk list is still copied per join; keep its growth out of the count.
	mid.Chunks = make([]*mem.Chunk, 0, 1<<10)
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		tr.Merge(children[next], mid, sp)
		next++
	})
	if got, want := mid.Remset.Len(), (runs+1)*rem; got != want {
		t.Fatalf("parent holds %d remembered entries after the merges, want %d", got, want)
	}
	if got, want := mid.Pinned.Len(), (runs+1)*pins; got != want {
		t.Fatalf("parent holds %d pinned entries after the merges, want %d", got, want)
	}
	return allocs
}

// TestMergeAllocatesNothingPerEntry pins the join's complexity without a
// clock: what a merge allocates does not depend on how many remembered
// entries and surviving pins the child carries.
func TestMergeAllocatesNothingPerEntry(t *testing.T) {
	small := mergeAllocs(t, 16, 16)
	large := mergeAllocs(t, 1<<16, 1<<10)
	if large != small || large > 2 {
		t.Fatalf("Merge allocates %v times with 65536 entries and 1024 pins, %v with 16 and 16; want equal and at most 2", large, small)
	}
}

// TestNestedMergesSpliceOnce: a leaf's remembered entries reach the top of
// an eleven-deep chain in order, and each merged heap's list is left empty
// and usable.
func TestNestedMergesSpliceOnce(t *testing.T) {
	const depth, entries = 11, 4096
	tr, sp := New(), mem.NewSpace()
	chain := []*Heap{tr.Root()}
	for i := 0; i < depth; i++ {
		chain = append(chain, tr.Fork(chain[i]))
	}
	holder := mem.NewAllocator(sp, tr.Root().ID).AllocArray(entries, mem.Nil)
	leaf := chain[depth]
	for i := 0; i < entries; i++ {
		leaf.AddRememberedLocal(holder, i)
	}
	first := leaf.Remset.head
	for i := depth; i > 0; i-- {
		child, parent := chain[i], chain[i-1]
		tr.Merge(child, parent, sp)
		if child.Remset.Len() != 0 || len(items(&child.Remset)) != 0 {
			t.Fatalf("depth %d: merged child keeps %d entries", i, child.Remset.Len())
		}
		child.Remset.Append(RememberedEntry{holder, -1})
		if child.Remset.Len() != 1 || parent.Remset.Len() != entries {
			t.Fatalf("depth %d: append to the spliced-from list: child %d, parent %d entries",
				i, child.Remset.Len(), parent.Remset.Len())
		}
	}
	top := &tr.Root().Remset
	if top.head != first {
		t.Fatal("the entries were copied on the way up, not spliced")
	}
	for i, e := range items(top) {
		if e != (RememberedEntry{holder, i}) {
			t.Fatalf("entry %d at the top is %+v", i, e)
		}
	}
	if top.Len() != entries {
		t.Fatalf("top holds %d entries, want %d", top.Len(), entries)
	}
}

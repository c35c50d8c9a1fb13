package main

import (
	"fmt"
	"runtime"
	"time"

	"mplgo/internal/attr"
	"mplgo/internal/entangle"
	"mplgo/internal/forkpath"
	"mplgo/internal/gc"
	"mplgo/internal/globalrt"
	"mplgo/internal/hierarchy"
	"mplgo/internal/mem"
	"mplgo/internal/mlang"
	"mplgo/internal/sched"
	"mplgo/internal/serve"
	"mplgo/internal/trace"
	"mplgo/mpl"
)

// Unit costs: what one call into a module's public function costs, measured
// from outside by looping over it. They do not depend on the workload; every
// traced run repeats them so that count × cost can be checked in place.
//
// sched's deque is unexported, so deque push/pop and steal cannot be priced
// from outside; sched.fork_join_ns (one push and one pop through
// Worker.ForkJoin) stands in for the first, and steals are reported as a
// count (sched.steals) and a ratio (sched.t2_over_t1) only.

// kernel measures one unit cost. run builds a fresh fixture for n
// operations and calls timed exactly once around the n operations.
type kernel struct {
	name string
	// maxN caps the operations per repeat for kernels whose fixture or
	// side effects grow with n (0 = no cap).
	maxN int
	// wordsPerOp turns the result into a rate in Mwords/s when non-zero.
	wordsPerOp float64
	run        func(n int, timed func(loop func()))
}

// sink keeps results alive so the compiler cannot drop the measured calls.
var sink int64

func (k kernel) once(n int) time.Duration {
	runtime.GC()
	var d time.Duration
	k.run(n, func(loop func()) {
		t0 := time.Now()
		loop()
		d = time.Since(t0)
	})
	return d
}

// measure calibrates n so that one repeat lasts about target, then reports
// the median over reps repeats.
func (k kernel) measure(target time.Duration, reps int) stat {
	n := 2000
	if k.maxN > 0 && n > k.maxN {
		n = k.maxN
	}
	for {
		d := k.once(n)
		if d >= target/2 || (k.maxN > 0 && n >= k.maxN) || n >= 1<<30 {
			break
		}
		grow := 8.0
		if d > 0 {
			if g := 1.2 * float64(target) / float64(d); g < grow {
				grow = g
			}
		}
		n = int(float64(n)*grow) + 1
		if k.maxN > 0 && n > k.maxN {
			n = k.maxN
		}
	}
	var xs []float64
	for r := 0; r < reps; r++ {
		ns := float64(k.once(n).Nanoseconds()) / float64(n)
		if k.wordsPerOp > 0 {
			xs = append(xs, ratio(k.wordsPerOp*1e3, ns))
		} else {
			xs = append(xs, ns)
		}
	}
	return summarize(xs)
}

// inTask runs body as the root task of a fresh one-worker runtime.
func inTask(cfg mpl.Config, body func(t *mpl.Task)) {
	cfg.Procs = 1
	if _, err := mpl.New(cfg).Run(func(t *mpl.Task) mpl.Value {
		body(t)
		return mpl.Nil
	}); err != nil {
		panic(fmt.Sprintf("benchmark: unit kernel runtime failed: %v", err))
	}
}

// entWorld is a heap tree built by hand for the entangle kernels: a
// candidate holder array in the root heap, targets in an owner heap, and a
// reader leaf that is the owner's sibling, so every read of a target
// through the holder is entangled with unpin depth 0.
type entWorld struct {
	sp          *mem.Space
	tr          *hierarchy.Tree
	m           *entangle.Manager
	owner, leaf *hierarchy.Heap
	holder      mem.Ref
	tgts        []mem.Ref
}

func allocIn(sp *mem.Space, h *hierarchy.Heap, n int, mk func(al *mem.Allocator, i int) mem.Ref) []mem.Ref {
	al := mem.NewAllocator(sp, h.ID)
	out := make([]mem.Ref, n)
	for i := range out {
		out[i] = mk(al, i)
	}
	h.Chunks = append(h.Chunks, al.Chunks...)
	return out
}

func newEntWorld(targets int) *entWorld {
	w := &entWorld{sp: mem.NewSpace(), tr: hierarchy.New()}
	w.m = entangle.New(w.sp, w.tr, entangle.Manage)
	root := w.tr.Root()
	w.owner = w.tr.Fork(root)
	w.leaf = w.tr.Fork(root)
	w.tgts = allocIn(w.sp, w.owner, targets, func(al *mem.Allocator, i int) mem.Ref { return al.AllocRef(mem.Int(int64(i))) })
	w.holder = allocIn(w.sp, root, 1, func(al *mem.Allocator, _ int) mem.Ref { return al.AllocArray(targets, mem.Nil) })[0]
	for i, t := range w.tgts {
		w.sp.Store(w.holder, i, t.Value())
	}
	w.sp.SetCandidate(w.holder)
	return w
}

func (w *entWorld) read(i int) {
	if _, err := w.m.OnRead(w.leaf, w.holder, i, w.tgts[i].Value()); err != nil {
		panic(err)
	}
}

// rootSlot is a one-slot root set for the collector kernel.
type rootSlot struct{ v mem.Value }

func (r *rootSlot) Roots(visit func(*mem.Value)) { visit(&r.v) }

func depthPath(depth int, spilled bool) forkpath.Path {
	p := forkpath.Root()
	for i := 0; i < depth; i++ {
		if spilled && i == 0 {
			p = p.ChildSpilled(uint64(i%3 + 1))
		} else {
			p = p.Child(uint64(i%3 + 1))
		}
	}
	return p
}

func unitKernels(sp *spans) []kernel {
	spaceArray := func() (*mem.Space, mem.Ref) {
		s := mem.NewSpace()
		return s, mem.NewAllocator(s, 1).AllocArray(64, mem.Int(7))
	}
	taskArray := func(t *mpl.Task, boxed bool) mpl.Ref {
		f := t.NewFrame(1)
		f.Set(0, t.AllocArray(64, mem.Int(7)).Value())
		if boxed {
			for i := 0; i < 64; i++ {
				box := t.AllocTuple(mem.Int(int64(i)))
				t.Write(f.Ref(0), i, box.Value())
			}
		}
		arr := f.Ref(0)
		f.Pop()
		return arr
	}
	lcaKernel := func(name string, spilled bool) kernel {
		return kernel{name: name, run: func(n int, timed func(func())) {
			base := depthPath(6, spilled)
			a, b := base.Child(1).Child(2), base.Child(2).Child(1)
			timed(func() {
				for i := 0; i < n; i++ {
					sink += int64(forkpath.LCADepth(&a, &b))
				}
			})
		}}
	}
	return []kernel{
		{name: "mem.load_ns", run: func(n int, timed func(func())) {
			s, arr := spaceArray()
			timed(func() {
				for i := 0; i < n; i++ {
					sink += int64(s.Load(arr, i&63))
				}
			})
		}},
		{name: "mem.load_checked_ns", run: func(n int, timed func(func())) {
			s, arr := spaceArray()
			timed(func() {
				for i := 0; i < n; i++ {
					v, _ := s.LoadChecked(arr, i&63)
					sink += int64(v)
				}
			})
		}},
		{name: "mem.store_ns", run: func(n int, timed func(func())) {
			s, arr := spaceArray()
			timed(func() {
				for i := 0; i < n; i++ {
					s.Store(arr, i&63, mem.Int(int64(i)))
				}
			})
		}},
		{name: "mem.alloc_tuple_ns", maxN: 2_000_000, run: func(n int, timed func(func())) {
			al := mem.NewAllocator(mem.NewSpace(), 1)
			timed(func() {
				for i := 0; i < n; i++ {
					sink += int64(al.AllocTuple(mem.Int(1), mem.Int(2)))
				}
			})
		}},
		{name: "mem.pin_unpin_ns", run: func(n int, timed func(func())) {
			s := mem.NewSpace()
			r := mem.NewAllocator(s, 1).AllocRef(mem.Int(1))
			timed(func() {
				for i := 0; i < n; i++ {
					s.Pin(r, 0)
					s.Unpin(r)
				}
			})
		}},
		{name: "forkpath.is_prefix_ns", run: func(n int, timed func(func())) {
			a := depthPath(6, false)
			b := a.Child(1).Child(2)
			timed(func() {
				for i := 0; i < n; i++ {
					if forkpath.IsPrefix(&a, &b) {
						sink++
					}
				}
			})
		}},
		lcaKernel("forkpath.lca_depth_ns", false),
		lcaKernel("forkpath.lca_depth_spilled_ns", true),
		{name: "hierarchy.is_ancestor_ns", run: func(n int, timed func(func())) {
			tr := hierarchy.New()
			a := tr.Fork(tr.Root())
			d := a
			for i := 0; i < 6; i++ {
				tr.Fork(d) // a sibling, so fork sequence numbers vary
				d = tr.Fork(d)
			}
			timed(func() {
				for i := 0; i < n; i++ {
					if tr.IsAncestor(a, d) {
						sink++
					}
				}
			})
		}},
		{name: "hierarchy.unpin_depth_ns", run: func(n int, timed func(func())) {
			tr := hierarchy.New()
			leaf, x := tr.Fork(tr.Root()), tr.Fork(tr.Root())
			timed(func() {
				for i := 0; i < n; i++ {
					sink += int64(tr.UnpinDepth(leaf, x))
				}
			})
		}},
		{name: "hierarchy.gate_enter_exit_ns", run: func(n int, timed func(func())) {
			var g hierarchy.Gate
			timed(func() {
				for i := 0; i < n; i++ {
					g.EnterReader()
					g.ExitReader()
				}
			})
		}},
		{name: "hierarchy.fork_merge_ns", maxN: 200_000, run: func(n int, timed func(func())) {
			s, tr := mem.NewSpace(), hierarchy.New()
			timed(func() {
				for i := 0; i < n; i++ {
					tr.Merge(tr.Fork(tr.Root()), tr.Root(), s)
				}
			})
		}},
		{name: "sched.fork_join_ns", run: func(n int, timed func(func())) {
			sched.NewPool(1, 1).Run(func(w *sched.Worker) {
				timed(func() {
					for i := 0; i < n; i++ {
						w.ForkJoin(func(*sched.Worker) {}, func(*sched.Worker, bool) {})
					}
				})
			})
		}},
		{name: "entangle.on_read_pinned_ns", run: func(n int, timed func(func())) {
			w := newEntWorld(1)
			w.read(0)
			timed(func() {
				for i := 0; i < n; i++ {
					w.read(0)
				}
			})
		}},
		{name: "entangle.on_read_fresh_pin_ns", maxN: 500_000, run: func(n int, timed func(func())) {
			w := newEntWorld(n)
			timed(func() {
				for i := 0; i < n; i++ {
					w.read(i)
				}
			})
		}},
		{name: "entangle.on_write_downptr_ns", maxN: 500_000, run: func(n int, timed func(func())) {
			w := newEntWorld(1)
			xs := allocIn(w.sp, w.leaf, n, func(al *mem.Allocator, i int) mem.Ref { return al.AllocRef(mem.Int(int64(i))) })
			timed(func() {
				for i := 0; i < n; i++ {
					if err := w.m.OnWrite(w.leaf, w.holder, 0, xs[i]); err != nil {
						panic(err)
					}
				}
			})
		}},
		{name: "entangle.on_join_unpin_ns", maxN: 500_000, run: func(n int, timed func(func())) {
			w := newEntWorld(n)
			for i := 0; i < n; i++ {
				w.read(i)
			}
			timed(func() { w.m.OnJoin(w.owner, w.tr.Root()) })
			if s := w.m.Stats.Snapshot(); s.Unpins != int64(n) {
				panic(fmt.Sprintf("benchmark: unpin kernel released %d of %d pins", s.Unpins, n))
			}
		}},
		{name: "core.read_imm_ns", run: func(n int, timed func(func())) {
			inTask(mpl.Config{}, func(t *mpl.Task) {
				arr := taskArray(t, false)
				timed(func() {
					for i := 0; i < n; i++ {
						sink += t.Read(arr, i&63).AsInt()
					}
				})
			})
		}},
		{name: "core.read_ref_ns", run: func(n int, timed func(func())) {
			inTask(mpl.Config{}, func(t *mpl.Task) {
				arr := taskArray(t, true)
				timed(func() {
					for i := 0; i < n; i++ {
						sink += int64(t.Read(arr, i&63))
					}
				})
			})
		}},
		{name: "core.write_ref_ns", run: func(n int, timed func(func())) {
			inTask(mpl.Config{}, func(t *mpl.Task) {
				arr := taskArray(t, true)
				box := t.Read(arr, 0)
				timed(func() {
					for i := 0; i < n; i++ {
						t.Write(arr, i&63, box)
					}
				})
			})
		}},
		{name: "core.read_fast_ns", run: func(n int, timed func(func())) {
			inTask(mpl.Config{}, func(t *mpl.Task) {
				arr := taskArray(t, false)
				timed(func() {
					for i := 0; i < n; i++ {
						sink += t.ReadFast(arr, i&63).AsInt()
					}
				})
			})
		}},
		{name: "core.read_entangled_ns", run: func(n int, timed func(func())) {
			inTask(mpl.Config{}, func(t *mpl.Task) {
				shared := t.AllocArray(1, mem.Nil)
				t.Par(
					func(l *mpl.Task) mpl.Value {
						l.Write(shared, 0, l.AllocTuple(mem.Int(99)).Value())
						return mpl.Nil
					},
					func(r *mpl.Task) mpl.Value {
						timed(func() {
							for i := 0; i < n; i++ {
								sink += int64(r.Read(shared, 0))
							}
						})
						return mpl.Nil
					},
				)
			})
		}},
		{name: "core.alloc_tuple_ns", run: func(n int, timed func(func())) {
			inTask(mpl.Config{}, func(t *mpl.Task) {
				timed(func() {
					for i := 0; i < n; i++ {
						sink += int64(t.AllocTuple(mem.Int(1), mem.Int(2)))
					}
				})
			})
		}},
		{name: "core.par_ns", maxN: 100_000, run: func(n int, timed func(func())) {
			inTask(mpl.Config{}, func(t *mpl.Task) {
				leaf := func(*mpl.Task) mpl.Value { return mpl.Nil }
				timed(func() {
					for i := 0; i < n; i++ {
						t.Par(leaf, leaf)
					}
				})
			})
		}},
		{name: "gc.lgc_copy_mwords_s", maxN: 400_000, wordsPerOp: 3, run: func(n int, timed func(func())) {
			s, tr := mem.NewSpace(), hierarchy.New()
			h := tr.Root()
			root := &rootSlot{}
			allocIn(s, h, n, func(al *mem.Allocator, i int) mem.Ref {
				cell := al.AllocTuple(mem.Int(int64(i)), root.v)
				root.v = cell.Value()
				return cell
			})
			h.AddRootSet(root)
			col := gc.New(s, tr)
			c := sp.startRun("unit")
			id := c.begin("gc.collect_ms")
			timed(func() {
				if res := col.Collect([]*hierarchy.Heap{h}); res.CopiedWords != int64(3*n) {
					panic(fmt.Sprintf("benchmark: collector kernel copied %d words, want %d", res.CopiedWords, 3*n))
				}
			})
			c.end(id)
			c.finish()
		}},
		{name: "globalrt.read_ns", run: func(n int, timed func(func())) {
			g := globalrt.New(0)
			arr := g.AllocArray(64, mem.Int(7))
			timed(func() {
				for i := 0; i < n; i++ {
					sink += g.Read(arr, i&63).AsInt()
				}
			})
		}},
		{name: "globalrt.alloc_tuple_ns", run: func(n int, timed func(func())) {
			g := globalrt.New(0)
			timed(func() {
				for i := 0; i < n; i++ {
					sink += int64(g.AllocTuple(mem.Int(1), mem.Int(2)))
				}
			})
		}},
		{name: "mlang.loop_iter_ns", maxN: 400_000, run: func(n int, timed func(func())) {
			ast, err := mlang.Parse(fmt.Sprintf(`reduce (tabulate (%d, fn i => i), 0, fn a => fn b => a + b)`, n))
			if err != nil {
				panic(err)
			}
			an, err := mlang.Analyze(ast)
			if err != nil {
				panic(err)
			}
			prog, err := mlang.CompileWith(ast, an)
			if err != nil {
				panic(err)
			}
			m := mlang.NewMachine(prog, nil)
			inTask(mpl.Config{}, func(t *mpl.Task) {
				timed(func() {
					v, err := m.Run(t)
					if err != nil {
						panic(err)
					}
					sink += v.AsInt()
				})
			})
		}},
		{name: "serve.admit_ns", maxN: 100_000, run: func(n int, timed func(func())) {
			rt := mpl.New(mpl.Config{Procs: 1})
			srv := serve.New(rt, serve.Config{})
			done := make(chan error, 1)
			go func() {
				_, err := rt.Run(srv.Run)
				done <- err
			}()
			empty := func(*mpl.Task) mpl.Value { return mpl.Nil }
			timed(func() {
				for i := 0; i < n; i++ {
					if _, err := srv.Submit(empty); err != nil {
						panic(err)
					}
				}
			})
			srv.Close()
			if err := <-done; err != nil {
				panic(err)
			}
		}},
		{name: "trace.emit_disabled_ns", run: func(n int, timed func(func())) {
			ring := trace.NewTracer(1, 64).Ring(0)
			timed(func() {
				for i := 0; i < n; i++ {
					ring.Emit(trace.EvFork, 0, uint64(i), 0)
				}
			})
		}},
		{name: "attr.begin_disabled_ns", run: func(n int, timed func(func())) {
			snk := attr.NewProfiler(1, 0).Sink(0)
			timed(func() {
				for i := 0; i < n; i++ {
					snk.End(attr.PinCAS, snk.Begin())
				}
			})
		}},
	}
}

// unitCosts measures every kernel within budget: five repeats each (one
// when quick), sized so that together they use the budget.
func unitCosts(budget time.Duration, quick bool, sp *spans) map[string]stat {
	ks := unitKernels(sp)
	reps, target := 5, budget/time.Duration(len(ks)*7)
	if quick {
		reps, target = 1, 200*time.Microsecond
	}
	out := map[string]stat{}
	for _, k := range ks {
		out[k.name] = k.measure(target, reps)
	}
	out["gc.collect_ms"] = scaled(sp.perGroupMedian("gc.collect_ms", false), 1e3)
	return out
}

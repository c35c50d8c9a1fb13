package main

import (
	"fmt"
	"runtime"
	"time"

	"mplgo/internal/mlang"
	gen "mplgo/internal/workload"
	"mplgo/mpl"
)

// The mlang workload: five generated source programs, each with a twin
// written directly against the mpl API. The twin runs on the same
// hierarchical runtime and is the workload's baseline, so `overhead` here is
// ROADMAP's "within 1.5x of the same program written against the mpl API".
// Compilation (parse, analyze, compile) happens before the timed region and
// is reported separately as mlang.compile_us.

func mlangProgram(name string, n int, disentangled bool, src string, ref int64, twin func(*mpl.Task) int64) program {
	return program{
		name:         name,
		n:            n,
		disentangled: disentangled,
		ref:          func(runCtx) int64 { return ref },
		hier: func(cfg mpl.Config, c runCtx) outcome {
			s := c.begin("mlang.parse_us")
			ast, err := mlang.Parse(src)
			c.end(s)
			if err != nil {
				return outcome{err: fmt.Errorf("%s: parse: %w", name, err)}
			}
			s = c.begin("mlang.analyze_us")
			an, err := mlang.Analyze(ast)
			c.end(s)
			if err != nil {
				return outcome{err: fmt.Errorf("%s: analyze: %w", name, err)}
			}
			s = c.begin("mlang.compile_us")
			prog, err := mlang.CompileWith(ast, an)
			c.end(s)
			if err != nil {
				return outcome{err: fmt.Errorf("%s: compile: %w", name, err)}
			}
			m := mlang.NewMachine(prog, nil)
			s = c.begin("core.new_us")
			rt := mpl.New(cfg)
			c.end(s)
			rt.SetStaticRegions(int64(an.Regions))
			var sum int64
			var execErr error
			run := c.begin("core.run_s")
			t0 := time.Now()
			_, err = rt.Run(func(t *mpl.Task) mpl.Value {
				e := c.beginUnder("mlang.exec_s", run)
				v, err := m.Run(t)
				c.end(e)
				sum, execErr = v.AsInt(), err
				return mpl.Nil
			})
			wall := time.Since(t0)
			c.end(run)
			if err == nil {
				err = execErr
			}
			return outcome{sum: sum, wall: wall, maxLive: rt.MaxLiveWords(), rt: rt, err: err}
		},
		base: func(c runCtx) outcome {
			return runHier(mpl.Config{Procs: 1}, c, twin)
		},
	}
}

// tabulate and reduce mirror the VM's data-parallel primitives (same
// grains), written the way an API user would.
func tabulate(t *mpl.Task, n int, f func(i int) int64) mpl.Ref {
	fr := t.NewFrame(1)
	fr.Set(0, t.AllocArray(n, mpl.Nil).Value())
	t.ParFor(0, n, n/64+1, func(t *mpl.Task, lo, hi int) {
		arr := fr.Ref(0)
		for i := lo; i < hi; i++ {
			t.Write(arr, i, mpl.Int(f(i)))
		}
	})
	arr := fr.Ref(0)
	fr.Pop()
	return arr
}

func reduceSum(t *mpl.Task, arr mpl.Ref, lo, hi int) int64 {
	if hi-lo <= 256 {
		var acc int64
		for i := lo; i < hi; i++ {
			acc += t.Read(arr, i).AsInt()
		}
		return acc
	}
	mid := lo + (hi-lo)/2
	a, b := t.Par(
		func(t *mpl.Task) mpl.Value { return mpl.Int(reduceSum(t, arr, lo, mid)) },
		func(t *mpl.Task) mpl.Value { return mpl.Int(reduceSum(t, arr, mid, hi)) },
	)
	return a.AsInt() + b.AsInt()
}

func fibSeq(n int64) int64 {
	if n < 2 {
		return n
	}
	return fibSeq(n-1) + fibSeq(n-2)
}

func fibTwin(t *mpl.Task, n int64) int64 {
	if n < 12 {
		return fibSeq(n)
	}
	a, b := t.Par(
		func(t *mpl.Task) mpl.Value { return mpl.Int(fibTwin(t, n-1)) },
		func(t *mpl.Task) mpl.Value { return mpl.Int(fibTwin(t, n-2)) },
	)
	return a.AsInt() + b.AsInt()
}

func mlangPrograms(rng *gen.RNG, quick bool) []program {
	psumN := jitter(rng, 150_000, quick)
	sieveN, sieveReps := jitter(rng, 12_000, quick), 6
	histN, histBins := jitter(rng, 14_000, quick), 8
	fibN := 25
	if quick {
		fibN = 18
	}
	handN := jitter(rng, 1_000, quick)

	var psumRef int64
	for i := 0; i < psumN; i++ {
		psumRef += int64(i) * int64(i)
	}

	sieveCount := func() int64 {
		composite := make([]bool, sieveN)
		var count int64
		for i := 2; i < sieveN; i++ {
			if !composite[i] {
				count++
				for k := 2; i*k < sieveN; k++ {
					composite[i*k] = true
				}
			}
		}
		return count
	}
	sieveRef := int64(sieveReps) * sieveCount()

	var histRef int64
	for b := 0; b < histBins; b++ {
		var c int64
		for i := 0; i < histN; i++ {
			if (i*i)%histBins == b {
				c++
			}
		}
		histRef += c * int64(b+1)
	}

	return []program{
		mlangProgram("psum", psumN, true,
			fmt.Sprintf(`reduce (tabulate (%d, fn i => i * i), 0, fn a => fn b => a + b)`, psumN),
			psumRef,
			func(t *mpl.Task) int64 {
				arr := tabulate(t, psumN, func(i int) int64 { return int64(i) * int64(i) })
				return reduceSum(t, arr, 0, psumN)
			}),
		mlangProgram("sieve", sieveN, true,
			fmt.Sprintf(`let val n = %d in
let fun sieve u =
  let val composite = array (n, false) in
  let fun markFrom p =
    let fun go k =
      if p * k >= n then ()
      else (update (composite, p * k, true); go (k + 1))
    in go 2 end in
  let fun count i =
    if i >= n then 0
    else if not (sub (composite, i)) then (markFrom i; 1 + count (i + 1))
    else count (i + 1)
  in count 2 end end end in
let fun rep k = if k = 0 then 0 else sieve () + rep (k - 1)
in rep %d end end end`, sieveN, sieveReps),
			sieveRef,
			func(t *mpl.Task) int64 {
				var total int64
				for r := 0; r < sieveReps; r++ {
					composite := t.AllocArray(sieveN, mpl.Bool(false))
					for i := 2; i < sieveN; i++ {
						if !t.Read(composite, i).AsBool() {
							total++
							for k := 2; i*k < sieveN; k++ {
								t.Write(composite, i*k, mpl.Bool(true))
							}
						}
					}
				}
				return total
			}),
		mlangProgram("histogram", histN, true,
			fmt.Sprintf(`let val n = %d in
let val bins = %d in
let val h = tabulate (bins, fn b =>
  reduce (tabulate (n, fn i => if (i * i) mod bins = b then 1 else 0), 0,
          fn x => fn y => x + y)) in
reduce (tabulate (bins, fn b => sub (h, b) * (b + 1)), 0, fn x => fn y => x + y)
end end end`, histN, histBins),
			histRef,
			func(t *mpl.Task) int64 {
				fr := t.NewFrame(1)
				fr.Set(0, t.AllocArray(histBins, mpl.Nil).Value())
				t.ParFor(0, histBins, histBins/64+1, func(t *mpl.Task, lo, hi int) {
					for b := lo; b < hi; b++ {
						ones := tabulate(t, histN, func(i int) int64 {
							if (i*i)%histBins == b {
								return 1
							}
							return 0
						})
						c := reduceSum(t, ones, 0, histN)
						t.Write(fr.Ref(0), b, mpl.Int(c))
					}
				})
				var total int64
				for b := 0; b < histBins; b++ {
					total += t.Read(fr.Ref(0), b).AsInt() * int64(b+1)
				}
				fr.Pop()
				return total
			}),
		mlangProgram("fib", fibN, true,
			fmt.Sprintf(`let fun fib n =
  if n < 2 then n
  else if n < 12 then fib (n - 1) + fib (n - 2)
  else let val p = par (fib (n - 1), fib (n - 2)) in #1 p + #2 p end
in fib %d end`, fibN),
			fibSeq(int64(fibN)),
			func(t *mpl.Task) int64 { return fibTwin(t, int64(fibN)) }),
		// handoff is entangled: the left task publishes a ref the right
		// task reads through while both are live. The reader polls so the
		// program is also correct when the right branch is stolen.
		mlangProgram("handoff", handN, false,
			fmt.Sprintf(`let fun step i =
  let val cell = ref (ref 0) in
  let val p = par (
    (cell := ref i; 1),
    let fun poll u =
      let val v = ! (!cell) in
      if v = i then v else poll ()
      end
    in poll () end)
  in #2 p end end in
let fun loop i = if i = 0 then 0 else step i + loop (i - 1)
in loop %d end end`, handN),
			int64(handN)*int64(handN+1)/2,
			func(t *mpl.Task) int64 {
				var total int64
				for i := handN; i > 0; i-- {
					fr := t.NewFrame(1)
					fr.Set(0, t.AllocRef(t.AllocRef(mpl.Int(0)).Value()).Value())
					want := int64(i)
					_, got := t.Par(
						func(t *mpl.Task) mpl.Value {
							c := t.AllocRef(mpl.Int(want))
							t.Write(fr.Ref(0), 0, c.Value())
							return mpl.Int(1)
						},
						func(t *mpl.Task) mpl.Value {
							for {
								if v := t.Read(t.Read(fr.Ref(0), 0).Ref(), 0); v.AsInt() == want {
									return v
								}
								runtime.Gosched()
							}
						},
					)
					total += got.AsInt()
					fr.Pop()
				}
				return total
			}),
	}
}

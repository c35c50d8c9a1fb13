package bench

import (
	"sort"

	"mplgo/internal/mem"
	"mplgo/internal/workload"
)

// Workload seeds (fixed so all implementations agree).
const (
	seedMcss  = 101
	seedMsort = 102
	seedHull  = 103
	seedText  = 104
	seedSpmv  = 105
	seedDedup = 106
	seedGraph = 107
)

// ---------------------------------------------------------------- fib

const fibGrain = 14

// seqFib is deliberately the naive exponential recursion: below the grain
// the benchmark does real exponential work, exactly like the paper's fib.
func seqFib(n int64) int64 {
	if n < 2 {
		return n
	}
	return seqFib(n-1) + seqFib(n-2)
}

// fibCalls counts the calls the exponential recursion makes for n
// (2·fib(n+1) − 1), used as the leaf's abstract work.
func fibCalls(n int64) int64 {
	a, b := int64(0), int64(1)
	for i := int64(0); i <= n; i++ {
		a, b = b, a+b
	}
	return 2*b - 1
}

func fibRT[T RT[T, F], F FrameI](t T, n int64) int64 {
	if n <= fibGrain {
		t.Work(fibCalls(n))
		return seqFib(n)
	}
	a, b := t.Par(
		func(t T) mem.Value { return mem.Int(fibRT[T, F](t, n-1)) },
		func(t T) mem.Value { return mem.Int(fibRT[T, F](t, n-2)) },
	)
	return a.AsInt() + b.AsInt()
}

func fibNative(n int64) int64 {
	if n <= fibGrain {
		return seqFib(n)
	}
	return fibNative(n-1) + fibNative(n-2)
}

// ---------------------------------------------------------------- mcss
// Maximum contiguous (nonempty) subsequence sum, divide and conquer.
// Each recursive call returns a heap tuple (total, prefix, suffix, best).

func mcssInput(n int) []int64 {
	xs := workload.Ints(seedMcss, n, 1001)
	for i := range xs {
		xs[i] -= 500
	}
	return xs
}

const mcssGrain = 2048

func mcssCombine(lt, lp, ls, lb, rt_, rp, rs, rb int64) (int64, int64, int64, int64) {
	total := lt + rt_
	prefix := max64(lp, lt+rp)
	suffix := max64(rs, rt_+ls)
	best := max64(max64(lb, rb), ls+rp)
	return total, prefix, suffix, best
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func mcssLeaf[T RT[T, F], F FrameI](t T, arr mem.Ref, lo, hi int) (int64, int64, int64, int64) {
	const ninf = int64(-1) << 60
	total, prefix, suffix, best := int64(0), ninf, ninf, ninf
	run := int64(0)
	for i := lo; i < hi; i++ {
		x := t.Read(arr, i).AsInt()
		total += x
		prefix = max64(prefix, total)
		run = max64(run+x, x)
		best = max64(best, run)
	}
	// suffix: max sum ending at hi-1.
	acc := int64(0)
	for i := hi - 1; i >= lo; i-- {
		acc += t.Read(arr, i).AsInt()
		suffix = max64(suffix, acc)
	}
	return total, prefix, suffix, best
}

// mcssRec solves [lo, hi) of the input array rooted in slot 0 of in, a
// frame mcssRT owns: read through the frame, never carried as a bare
// reference across the Par and the tuple allocations, which may move it
// (see msortRec). The call over the whole input reads it last, so it
// clears the slot before its own allocation: a collection there has no
// input left to copy.
func mcssRec[T RT[T, F], F FrameI](t T, in F, lo, hi int) mem.Ref {
	whole := lo == 0 && hi == t.Length(in.Ref(0))
	if hi-lo <= mcssGrain {
		a, b, c, d := mcssLeaf[T, F](t, in.Ref(0), lo, hi)
		if whole {
			in.Set(0, mem.Nil)
		}
		return t.AllocTuple(mem.Int(a), mem.Int(b), mem.Int(c), mem.Int(d))
	}
	mid := lo + (hi-lo)/2
	lv, rv := t.Par(
		func(t T) mem.Value { return mcssRec[T, F](t, in, lo, mid).Value() },
		func(t T) mem.Value { return mcssRec[T, F](t, in, mid, hi).Value() },
	)
	if whole {
		in.Set(0, mem.Nil)
	}
	l, r := lv.Ref(), rv.Ref()
	lt, lp, ls, lb := t.Read(l, 0).AsInt(), t.Read(l, 1).AsInt(), t.Read(l, 2).AsInt(), t.Read(l, 3).AsInt()
	rt_, rp, rs, rb := t.Read(r, 0).AsInt(), t.Read(r, 1).AsInt(), t.Read(r, 2).AsInt(), t.Read(r, 3).AsInt()
	a, b, c, d := mcssCombine(lt, lp, ls, lb, rt_, rp, rs, rb)
	return t.AllocTuple(mem.Int(a), mem.Int(b), mem.Int(c), mem.Int(d))
}

func mcssRT[T RT[T, F], F FrameI](t T, n int) int64 {
	arr := loadInts[T, F](t, mcssInput(n))
	in := t.NewFrame(1)
	in.Set(0, arr.Value())
	res := mcssRec[T, F](t, in, 0, n)
	in.Pop()
	return t.Read(res, 3).AsInt()
}

func mcssNative(n int) int64 {
	xs := mcssInput(n)
	best, run := int64(-1)<<60, int64(0)
	for _, x := range xs {
		run = max64(run+x, x)
		best = max64(best, run)
	}
	return best
}

// ---------------------------------------------------------------- primes

const primesGrain = 1024

func isPrime(x int64) bool {
	if x < 2 {
		return false
	}
	for d := int64(2); d*d <= x; d++ {
		if x%d == 0 {
			return false
		}
	}
	return true
}

func primesRT[T RT[T, F], F FrameI](t T, n int) int64 {
	return parSum[T, F](t, 2, n, primesGrain, func(t T, lo, hi int) int64 {
		var c int64
		for x := lo; x < hi; x++ {
			if isPrime(int64(x)) {
				c++
			}
		}
		t.Work(int64(hi-lo) * 6)
		return c
	})
}

func primesNative(n int) int64 {
	var c int64
	for x := 2; x < n; x++ {
		if isPrime(int64(x)) {
			c++
		}
	}
	return c
}

// ---------------------------------------------------------------- integrate
// Fixed-grid summation of a deterministic integer "function", standing in
// for numerical integration with exact cross-implementation agreement.

const integrateGrain = 8192

func integrand(i int64) int64 {
	h := uint64(i) * 0x9E3779B97F4A7C15
	return int64(h>>40)%1000 - 500 + i%7
}

func integrateRT[T RT[T, F], F FrameI](t T, n int) int64 {
	return parSum[T, F](t, 0, n, integrateGrain, func(t T, lo, hi int) int64 {
		var s int64
		for i := lo; i < hi; i++ {
			s += integrand(int64(i))
		}
		t.Work(int64(hi - lo))
		return s
	})
}

func integrateNative(n int) int64 {
	var s int64
	for i := 0; i < n; i++ {
		s += integrand(int64(i))
	}
	return s
}

// ---------------------------------------------------------------- nqueens
// Counts solutions; each placement allocates a cons cell (functional style)
// so the allocator and hierarchy are exercised, not just the scheduler.

func nqueensRT[T RT[T, F], F FrameI](t T, n int) int64 {
	full := uint64(1)<<uint(n) - 1
	var rec func(t T, row int, cols, d1, d2 uint64) int64
	// parBits explores the candidate placements of a row in parallel by
	// binary splitting.
	var parBits func(t T, bits []uint64, row int, cols, d1, d2 uint64) int64
	parBits = func(t T, bits []uint64, row int, cols, d1, d2 uint64) int64 {
		if len(bits) == 1 {
			bit := bits[0]
			t.AllocTuple(mem.Int(int64(bit))) // allocation pressure, functional style
			t.Work(4)
			return rec(t, row+1, cols|bit, (d1|bit)<<1, (d2|bit)>>1)
		}
		mid := len(bits) / 2
		a, b := t.Par(
			func(t T) mem.Value { return mem.Int(parBits(t, bits[:mid], row, cols, d1, d2)) },
			func(t T) mem.Value { return mem.Int(parBits(t, bits[mid:], row, cols, d1, d2)) },
		)
		return a.AsInt() + b.AsInt()
	}
	rec = func(t T, row int, cols, d1, d2 uint64) int64 {
		if row == n {
			return 1
		}
		avail := (^(cols | d1 | d2)) & full
		if avail == 0 {
			return 0
		}
		if row < 2 {
			var bits []uint64
			for a := avail; a != 0; {
				bit := a & (-a)
				a &^= bit
				bits = append(bits, bit)
			}
			return parBits(t, bits, row, cols, d1, d2)
		}
		var count int64
		for avail != 0 {
			bit := avail & (-avail)
			avail &^= bit
			t.AllocTuple(mem.Int(int64(bit)))
			t.Work(4)
			count += rec(t, row+1, cols|bit, (d1|bit)<<1, (d2|bit)>>1)
		}
		return count
	}
	return rec(t, 0, 0, 0, 0)
}

func nqueensNative(n int) int64 {
	var rec func(row int, cols, d1, d2 uint64) int64
	rec = func(row int, cols, d1, d2 uint64) int64 {
		if row == n {
			return 1
		}
		var count int64
		avail := (^(cols | d1 | d2)) & ((1 << uint(n)) - 1)
		for avail != 0 {
			bit := avail & (-avail)
			avail &^= bit
			count += rec(row+1, cols|bit, (d1|bit)<<1, (d2|bit)>>1)
		}
		return count
	}
	return rec(0, 0, 0, 0)
}

// ---------------------------------------------------------------- msort
// Parallel mergesort over heap arrays: leaves insertion-sort a copy,
// interior nodes merge their children's results into a fresh array.

const msortGrain = 256

func msortInput(n int) []int64 { return workload.Ints(seedMsort, n, 1_000_000) }

// msortRec sorts [lo, hi) of the input array rooted in slot 0 of in, a
// frame msortRT owns. The input is read through the frame, never carried
// as a bare reference: an allocation anywhere may move it on the global
// runtime (one heap), and on the hierarchical one when it lives in this
// task's own heap (shallow recursion).
func msortRec[T RT[T, F], F FrameI](t T, in F, lo, hi int) mem.Ref {
	n := hi - lo
	if n <= msortGrain {
		out := t.AllocArray(n, mem.Int(0))
		arr := in.Ref(0)
		for i := 0; i < n; i++ {
			t.Write(out, i, t.Read(arr, lo+i))
		}
		// Insertion sort through runtime accesses.
		for i := 1; i < n; i++ {
			v := t.Read(out, i)
			j := i - 1
			for j >= 0 && t.Read(out, j).AsInt() > v.AsInt() {
				t.Write(out, j+1, t.Read(out, j))
				j--
			}
			t.Write(out, j+1, v)
		}
		return out
	}
	mid := lo + n/2
	lv, rv := t.Par(
		func(t T) mem.Value { return msortRec[T, F](t, in, lo, mid).Value() },
		func(t T) mem.Value { return msortRec[T, F](t, in, mid, hi).Value() },
	)
	// The children's arrays must survive the output allocation.
	f := t.NewFrame(2)
	f.Set(0, lv)
	f.Set(1, rv)
	out := t.AllocArray(n, mem.Int(0))
	l, r := f.Ref(0), f.Ref(1)
	ln, rn := t.Length(l), t.Length(r)
	i, j, k := 0, 0, 0
	for i < ln && j < rn {
		a, b := t.Read(l, i), t.Read(r, j)
		if a.AsInt() <= b.AsInt() {
			t.Write(out, k, a)
			i++
		} else {
			t.Write(out, k, b)
			j++
		}
		k++
	}
	for ; i < ln; i++ {
		t.Write(out, k, t.Read(l, i))
		k++
	}
	for ; j < rn; j++ {
		t.Write(out, k, t.Read(r, j))
		k++
	}
	f.Pop()
	return out
}

func msortChecksum64(i, v int64) int64 { return v * (i%7 + 1) }

func msortRT[T RT[T, F], F FrameI](t T, n int) int64 {
	arr := loadInts[T, F](t, msortInput(n))
	in := t.NewFrame(1)
	in.Set(0, arr.Value())
	sorted := msortRec[T, F](t, in, 0, n)
	in.Pop()
	var sum int64
	for i := 0; i < n; i++ {
		sum += msortChecksum64(int64(i), t.Read(sorted, i).AsInt())
	}
	return sum
}

func msortNative(n int) int64 {
	xs := msortInput(n)
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	var sum int64
	for i, v := range xs {
		sum += msortChecksum64(int64(i), v)
	}
	return sum
}

package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"mplgo/internal/chaos"
	"mplgo/internal/mem"
)

// The request-scoped fault-domain tests: a scope's death (deadline, budget,
// explicit cancel) must surface as a typed cause from exactly that scope's
// join, while sibling subtrees — and the runtime itself — run to completion
// with balanced pin accounting. See scope.go for the unwind contract.

// scopedRequest runs body under a fresh scope on t and returns its cause.
func scopedRequest(t *Task, timeout time.Duration, budget int64, body func(*Task) mem.Value) (mem.Value, error) {
	return t.RunScoped(t.NewScope(timeout, budget), body)
}

// spinUntilScopeDead allocates until the task observes its domain's death;
// the allocation poll folds the deadline into the cancel flag, so this
// terminates without any fork in the body.
func spinUntilScopeDead(t *Task) mem.Value {
	for t.ScopeErr() == nil {
		t.AllocArray(16, mem.Int(1))
	}
	return mem.Int(-1)
}

// siblingProgram is randomProgram's entangled workload (task-local churn,
// shared-array publication, entangled reads through a per-request shared
// array) without its end-of-run ValidateHeaps — that audit walks every
// live heap and is only sound when the program is the runtime's sole
// computation, which concurrent sibling requests are not.
func siblingProgram(seed uint64, depth int) func(t *Task) mem.Value {
	return func(t *Task) mem.Value {
		f := t.NewFrame(1)
		defer f.Pop()
		f.Set(0, t.AllocArray(64, mem.Nil).Value())
		var rec func(t *Task, seed uint64, depth int) int64
		rec = func(t *Task, seed uint64, depth int) int64 {
			if depth == 0 {
				slot := int(seed % 64)
				box := t.AllocTuple(mem.Int(int64(seed % 100)))
				t.CAS(f.Ref(0), slot, mem.Nil, box.Value())
				var sum int64
				if v := t.Read(f.Ref(0), slot); v.IsRef() && t.Read(v.Ref(), 0).AsInt() >= 0 {
					sum++
				}
				t.AllocArray(48, mem.Int(sum))
				return sum
			}
			a, b := t.Par(
				func(t *Task) mem.Value { return mem.Int(rec(t, seed*31+1, depth-1)) },
				func(t *Task) mem.Value { return mem.Int(rec(t, seed*31+2, depth-1)) },
			)
			return a.AsInt() + b.AsInt()
		}
		return mem.Int(rec(t, seed, depth))
	}
}

// TestScopeDeadlineSiblingsComplete is the acceptance criterion: one
// request exceeds its deadline and gets ErrDeadlineExceeded from its own
// join, while concurrent sibling requests — full entangled workloads —
// complete with correct results, under chaos injection. CI runs this
// package under -race.
func TestScopeDeadlineSiblingsComplete(t *testing.T) {
	const siblings = 3
	// Injection-free P=1 baselines for the sibling workloads.
	want := make([]int64, siblings)
	for i := range want {
		rt := New(Config{Procs: 1})
		v, err := rt.Run(siblingProgram(uint64(i)+200, 5))
		if err != nil {
			t.Fatalf("baseline %d: %v", i, err)
		}
		want[i] = v.AsInt()
	}
	opts := chaos.Soak()
	cfg := Config{Procs: 4, HeapBudgetWords: 1024, Seed: 11, Chaos: &opts}
	rt := New(cfg)
	var (
		doomedErr error
		got       [siblings]int64
		sibErr    [siblings]error
	)
	_, err := rt.Run(func(tk *Task) mem.Value {
		tk.ParFor(0, siblings+1, 1, func(ct *Task, lo, _ int) {
			if lo == siblings {
				_, doomedErr = scopedRequest(ct, time.Millisecond, 0, spinUntilScopeDead)
				return
			}
			// No deadline on the siblings: with chaos on, DeadlinePin
			// may expire any deadline-bearing scope at a pin site, and
			// these requests must provably survive.
			v, err := scopedRequest(ct, 0, 0, siblingProgram(uint64(lo)+200, 5))
			got[lo], sibErr[lo] = v.AsInt(), err
		})
		return mem.Nil
	})
	if err != nil {
		dumpChaosFailure(t, rt, cfg.Seed, cfg, err)
		t.Fatalf("runtime error: %v\n%s", err, rt.ChaosReport())
	}
	if !errors.Is(doomedErr, ErrDeadlineExceeded) {
		t.Fatalf("doomed request error = %v, want ErrDeadlineExceeded", doomedErr)
	}
	for i := 0; i < siblings; i++ {
		if sibErr[i] != nil {
			t.Fatalf("sibling %d failed alongside the doomed request: %v", i, sibErr[i])
		}
		if got[i] != want[i] {
			t.Fatalf("sibling %d result %d, want %d", i, got[i], want[i])
		}
	}
	if s := rt.EntStats(); s.Pins != s.Unpins {
		dumpChaosFailure(t, rt, cfg.Seed, cfg, fmt.Errorf("pins %d != unpins %d", s.Pins, s.Unpins))
		t.Fatalf("pins %d != unpins %d after scoped unwind", s.Pins, s.Unpins)
	}
	if ierr := rt.CheckInvariants(); ierr != nil {
		t.Fatalf("invariants after scoped deadline: %v", ierr)
	}
}

// TestScopeBudgetCancelsOnlyTheScope: a request that allocates past its
// heap-word budget dies with ErrHeapLimit as its scope's cause — without
// tripping the runtime-wide limit or cancelling anything else.
func TestScopeBudgetCancelsOnlyTheScope(t *testing.T) {
	rt := New(Config{Procs: 2, HeapBudgetWords: 512})
	var greedyErr, frugalErr error
	_, err := rt.Run(func(tk *Task) mem.Value {
		tk.Par(
			func(ct *Task) mem.Value {
				_, greedyErr = scopedRequest(ct, 0, 4096, spinUntilScopeDead)
				return mem.Nil
			},
			func(ct *Task) mem.Value {
				_, frugalErr = scopedRequest(ct, 0, 1<<30, func(t *Task) mem.Value {
					for i := 0; i < 200; i++ {
						t.AllocArray(16, mem.Int(int64(i)))
					}
					return mem.Int(1)
				})
				return mem.Nil
			},
		)
		return mem.Nil
	})
	if err != nil {
		t.Fatalf("runtime error: %v", err)
	}
	if !errors.Is(greedyErr, ErrHeapLimit) {
		t.Fatalf("greedy request error = %v, want ErrHeapLimit", greedyErr)
	}
	if frugalErr != nil {
		t.Fatalf("frugal sibling failed: %v", frugalErr)
	}
	if rt.Cancelled() {
		t.Fatal("scope budget cancelled the whole runtime")
	}
}

// TestScopeChargesExactWords: once RunScoped returns, a scope has been
// charged exactly the words allocated under it — its Par branches' included
// — and two scopes run one after the other on one task each pay only their
// own, not what the task allocated before, between or after them.
func TestScopeChargesExactWords(t *testing.T) {
	rt := New(Config{Procs: 2, HeapBudgetWords: 1024})
	var a, b *Scope
	_, err := rt.Run(func(tk *Task) mem.Value {
		alloc := func(t *Task, n int) {
			for i := 0; i < n; i++ {
				t.AllocArray(i%40, mem.Int(1)) // i%40+1 words
			}
		}
		alloc(tk, 33)
		a = tk.NewScope(0, 1<<40)
		tk.RunScoped(a, func(t *Task) mem.Value {
			alloc(t, 70)
			t.Par(
				func(t *Task) mem.Value { alloc(t, 50); return mem.Nil },
				func(t *Task) mem.Value { alloc(t, 90); return mem.Nil },
			)
			alloc(t, 7)
			return mem.Nil
		})
		alloc(tk, 45)
		b = tk.NewScope(0, 1<<40)
		tk.RunScoped(b, func(t *Task) mem.Value { alloc(t, 60); return mem.Nil })
		alloc(tk, 20)
		return mem.Nil
	})
	if err != nil {
		t.Fatal(err)
	}
	words := func(n int) (w int64) {
		for i := 0; i < n; i++ {
			w += int64(i%40 + 1)
		}
		return w
	}
	if got, want := a.AllocatedWords(), words(70)+words(50)+words(90)+words(7); got != want {
		t.Errorf("first scope charged %d words, want %d", got, want)
	}
	if got, want := b.AllocatedWords(), words(60); got != want {
		t.Errorf("second scope charged %d words, want %d", got, want)
	}
}

// TestScopeBudgetOvershootBound: a request allocates without polling until
// its task passes the poll limit, so it is charged for at most pollQuantum
// words past its budget, plus the object that crossed the limit, when it dies.
func TestScopeBudgetOvershootBound(t *testing.T) {
	const budget, object = 4000, 17
	rt := New(Config{Procs: 1})
	sc := NewScope(nil, time.Time{}, budget)
	var charged int64
	_, err := rt.Run(func(tk *Task) mem.Value {
		_, err := tk.RunScoped(sc, func(t *Task) mem.Value {
			spinUntilScopeDead(t) // AllocArray(16, ...): object words each
			charged = sc.AllocatedWords()
			return mem.Nil
		})
		if !errors.Is(err, ErrHeapLimit) {
			t.Errorf("request error = %v, want ErrHeapLimit", err)
		}
		return mem.Nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if charged <= budget || charged > budget+pollQuantum+object {
		t.Fatalf("died charged %d words, want in (%d, %d]", charged, budget, budget+pollQuantum+object)
	}
}

// TestForkScoped: the scoped branch of a ForkScoped join reports its typed
// cause while the unscoped branch's value is unaffected.
func TestForkScoped(t *testing.T) {
	rt := New(Config{Procs: 2})
	_, err := rt.Run(func(tk *Task) mem.Value {
		sc := tk.NewScope(time.Millisecond, 0)
		fv, _, gerr := tk.ForkScoped(sc,
			func(t *Task) mem.Value { return mem.Int(42) },
			spinUntilScopeDead,
		)
		if fv.AsInt() != 42 {
			t.Errorf("unscoped branch value = %v, want 42", fv)
		}
		if !errors.Is(gerr, ErrDeadlineExceeded) {
			t.Errorf("scoped branch error = %v, want ErrDeadlineExceeded", gerr)
		}
		// A second scope on the same task starts live: scopes are
		// per-domain, not sticky task state.
		v, err2 := tk.RunScoped(tk.NewScope(time.Minute, 0), func(t *Task) mem.Value {
			return mem.Int(7)
		})
		if err2 != nil || v.AsInt() != 7 {
			t.Errorf("fresh scope after a dead one: v=%v err=%v", v, err2)
		}
		return mem.Nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestScopeExplicitCancelCause: Cancel's cause is what the join reports,
// first cause wins, and nested scopes observe ancestors.
func TestScopeExplicitCancelCause(t *testing.T) {
	cause := errors.New("client went away")
	outer := NewScope(nil, time.Time{}, 0)
	inner := NewScope(outer, time.Time{}, 0)
	if outer.Err() != nil || inner.Err() != nil || inner.Cancelled() {
		t.Fatal("fresh scopes not live")
	}
	outer.Cancel(cause)
	outer.Cancel(errors.New("late loser"))
	if !inner.Cancelled() {
		t.Fatal("child did not observe ancestor cancellation")
	}
	if got := inner.Err(); !errors.Is(got, cause) {
		t.Fatalf("inner.Err() = %v, want the first cause", got)
	}
	sibling := NewScope(nil, time.Time{}, 0)
	if sibling.Cancelled() {
		t.Fatal("unrelated scope observed another domain's cancel")
	}
	if err := NewScope(nil, time.Time{}, 0).Err(); err != nil {
		t.Fatalf("live scope Err() = %v", err)
	}
	c := NewScope(nil, time.Time{}, 0)
	c.Cancel(nil)
	if !errors.Is(c.Err(), ErrCancelled) {
		t.Fatalf("nil-cause cancel Err() = %v, want ErrCancelled", c.Err())
	}
}

// TestScopeCancelFromOutside: a scope cancelled from a goroutine outside
// the pool (the server's network edge) unwinds just that request.
func TestScopeCancelFromOutside(t *testing.T) {
	rt := New(Config{Procs: 2, HeapBudgetWords: 512})
	cause := errors.New("connection reset")
	sc := NewScope(nil, time.Time{}, 0)
	started := make(chan struct{})
	go func() {
		<-started
		sc.Cancel(cause)
	}()
	var reqErr error
	_, err := rt.Run(func(tk *Task) mem.Value {
		close(started)
		_, reqErr = tk.RunScoped(sc, spinUntilScopeDead)
		return mem.Nil
	})
	if err != nil {
		t.Fatalf("runtime error: %v", err)
	}
	if !errors.Is(reqErr, cause) {
		t.Fatalf("request error = %v, want the external cause", reqErr)
	}
	if rt.Cancelled() {
		t.Fatal("external scope cancel cancelled the runtime")
	}
}

// TestGlobalCancelDominatesScope: runtime-wide cancellation surfaces
// through scoped joins too — a scope cannot mask the computation's death.
func TestGlobalCancelDominatesScope(t *testing.T) {
	rt := New(Config{Procs: 2, HeapBudgetWords: 512})
	var reqErr error
	_, err := rt.Run(func(tk *Task) mem.Value {
		_, reqErr = tk.RunScoped(tk.NewScope(time.Minute, 0), func(t *Task) mem.Value {
			t.Runtime().Cancel()
			return mem.Int(9)
		})
		return mem.Nil
	})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("Run error = %v, want ErrCancelled", err)
	}
	if !errors.Is(reqErr, ErrCancelled) {
		t.Fatalf("scoped join error = %v, want ErrCancelled", reqErr)
	}
}

// scopedEntangledRequest is the CGC-race workload: a deadline-scoped
// subtree that forks, publishes into a shared ancestor array (down-
// pointers), reads entangled slots (pins), and churns garbage (LGCs) —
// while the dispatcher-like parent sits parked under live children, i.e.
// exactly the state the concurrent collector claims heaps in.
func scopedEntangledRequest(shared Frame, seed uint64) func(*Task) mem.Value {
	var rec func(t *Task, seed uint64, depth int) int64
	rec = func(t *Task, seed uint64, depth int) int64 {
		slot := int(seed % 64)
		box := t.AllocTuple(mem.Int(int64(seed % 100)))
		t.CAS(shared.Ref(0), slot, mem.Nil, box.Value())
		var sum int64
		if v := t.Read(shared.Ref(0), slot); v.IsRef() {
			sum += t.Read(v.Ref(), 0).AsInt()
		}
		t.AllocArray(48, mem.Int(sum)) // churn to force LGCs under the tiny budget
		if depth == 0 {
			return sum
		}
		a, b := t.Par(
			func(t *Task) mem.Value { return mem.Int(rec(t, seed*31+1, depth-1)) },
			func(t *Task) mem.Value { return mem.Int(rec(t, seed*31+2, depth-1)) },
		)
		return sum + a.AsInt() + b.AsInt()
	}
	return func(t *Task) mem.Value { return mem.Int(rec(t, seed, 4)) }
}

// TestChaosScopedCancelRacesCGC is the satellite soak: scoped requests
// with aggressive deadlines run against the concurrent collector with the
// full injection preset — CGCMark/CGCSweep stalls park-and-sweep the
// requests' ancestor heaps while DeadlinePin expires scopes at the read
// barrier's pin site. Every seed must unwind cleanly: no runtime error, a
// mix of completed and deadline-killed requests, balanced pins, and a
// clean strict audit. The TestChaos name puts it in CI's chaos job
// (-race); requires only that some requests die and some survive across
// the matrix so both paths are known to be exercised.
func TestChaosScopedCancelRacesCGC(t *testing.T) {
	opts := chaos.Soak()
	var died, survived int
	for _, seed := range chaosSeeds(t) {
		cfg := Config{
			Procs: 4, HeapBudgetWords: 512, Seed: seed, Chaos: &opts,
			CGC: true, CGCThresholdWords: 1 << 10,
		}
		rt := New(cfg)
		var reqErr [6]error
		_, err := rt.Run(func(tk *Task) mem.Value {
			shared := tk.NewFrame(1)
			defer shared.Pop()
			shared.Set(0, tk.AllocArray(64, mem.Nil).Value())
			// The root stays parked under the ParFor while requests run:
			// its heap (holding the shared array) is exactly what CGC
			// claims and sweeps mid-request.
			tk.ParFor(0, len(reqErr), 1, func(ct *Task, lo, _ int) {
				// Odd requests get a deadline that expires mid-flight (the
				// DeadlinePin injection point forces expiry at pin sites
				// even when the clock would not); even requests carry no
				// deadline at all — DeadlinePin skips deadline-free scopes
				// — so they must ride out the same chaos and complete.
				var timeout time.Duration
				if lo%2 == 1 {
					timeout = 500 * time.Microsecond
				}
				_, reqErr[lo] = ct.RunScoped(ct.NewScope(timeout, 0),
					scopedEntangledRequest(shared, uint64(seed)*1000+uint64(lo)))
			})
			return mem.Nil
		})
		if err != nil {
			dumpChaosFailure(t, rt, seed, cfg, err)
			t.Fatalf("seed %d: runtime error: %v\n%s", seed, err, rt.ChaosReport())
		}
		for i, e := range reqErr {
			switch {
			case e == nil:
				survived++
			case errors.Is(e, ErrDeadlineExceeded):
				died++
			default:
				dumpChaosFailure(t, rt, seed, cfg, e)
				t.Fatalf("seed %d: request %d died with unexpected cause: %v", seed, i, e)
			}
		}
		if s := rt.EntStats(); s.Pins != s.Unpins {
			dumpChaosFailure(t, rt, seed, cfg, fmt.Errorf("pins %d != unpins %d", s.Pins, s.Unpins))
			t.Fatalf("seed %d: pins %d != unpins %d after scoped unwind under CGC", seed, s.Pins, s.Unpins)
		}
		if ierr := rt.CheckInvariants(); ierr != nil {
			dumpChaosFailure(t, rt, seed, cfg, ierr)
			t.Fatalf("seed %d: invariants: %v\n%s", seed, ierr, rt.ChaosReport())
		}
	}
	if died == 0 || survived == 0 {
		t.Fatalf("soak exercised only one path: %d died, %d survived", died, survived)
	}
}

// TestScopePollCostShape guards the fast-path claim: an unscoped task's
// poll sites reduce to one nil test. (The bench gate is the real enforcer;
// this pins the semantic half — nil scope never cancels, never charges.)
func TestScopePollCostShape(t *testing.T) {
	rt := New(Config{Procs: 1})
	_, err := rt.Run(func(tk *Task) mem.Value {
		if tk.Scope() != nil || tk.ScopeErr() != nil || tk.scopeCancelled() {
			t.Error("unscoped task reports a scope")
		}
		for i := 0; i < 1000; i++ {
			tk.AllocArray(8, mem.Int(int64(i))) // bumpAlloc with nil scope
		}
		return mem.Nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

package core

import (
	"fmt"
	"runtime"
	"testing"

	"mplgo/internal/mem"
	"mplgo/internal/workload"
)

// TestDownPointerRepeatsAcrossCollections is the collector's duplicate-entry
// property (internal/gc, TestRemsetDuplicatesProperty) seen from a program:
// one task keeps rewriting the fields of an array in its parent's heap —
// the same field again and again, nil and back, two fields to one target,
// immediates over references — and pins some targets by storing them into a
// mailbox a sibling owns, while a 256-word budget makes its leaf collect
// every few steps. Every remembered entry is a duplicate of an earlier one
// many times over, and after every burst each field must still lead to the
// object the task last put there. At Procs > 1 the sibling reads through
// the same fields while the owner collects.
func TestDownPointerRepeatsAcrossCollections(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("procs%d/seed%d", procs, seed), func(t *testing.T) {
				rt := New(Config{Procs: procs, HeapBudgetWords: 256})
				_, err := rt.Run(func(tk *Task) mem.Value { return downPtrRepeats(t, tk, procs, seed) })
				if err != nil {
					t.Fatal(err)
				}
				if c, _, _ := rt.GCStats(); c < 20 {
					t.Fatalf("only %d collections at a 256-word budget", c)
				}
				if s := rt.EntStats(); s.Pins != s.Unpins || s.DownPointers < 500 {
					t.Fatalf("pins %d, unpins %d, down-pointers %d", s.Pins, s.Unpins, s.DownPointers)
				}
				if err := rt.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func downPtrRepeats(t *testing.T, tk *Task, procs int, seed uint64) mem.Value {
	const fields, slots, rounds, steps = 16, 8, 12, 60
	fr := tk.NewFrame(2)
	defer fr.Pop()
	fr.Set(0, tk.AllocArray(fields, mem.Nil).Value())
	fr.Set(1, tk.AllocRef(mem.Nil).Value())
	holder, mailCell := fr.Ref(0), fr.Ref(1) // the parent's heap does not move while it is suspended

	// check reads a target through holder or mailbox and returns its id.
	check := func(t *Task, v mem.Value) int64 {
		id := t.Read(v.Ref(), 0).AsInt()
		if t.Read(v.Ref(), 1).AsInt() != 7*id {
			panic(fmt.Sprintf("target %v: words %v, %v", v, t.Read(v.Ref(), 0), t.Read(v.Ref(), 1)))
		}
		return id
	}
	var field [fields]int64 // id the field must lead to; 0: no reference
	var mail [slots]int64

	tk.Par(
		func(l *Task) mem.Value {
			l.Write(mailCell, 0, l.AllocArray(slots, mem.Nil).Value())
			// With a worker to spare, read through the fields while the
			// owner rewrites them and collects: entangled reads that pin.
			for i := 0; i < 4000 && procs > 1; i++ {
				if v := l.Read(holder, i%fields); v.IsRef() {
					check(l, v)
				}
				runtime.Gosched()
			}
			return mem.Nil
		},
		func(r *Task) mem.Value {
			rng := workload.NewRNG(seed)
			next := int64(0)
			for round := 0; round < rounds; round++ {
				for step := 0; step < steps; step++ {
					f := rng.Intn(fields)
					switch op := rng.Intn(8); {
					case op < 2 || field[f] == 0:
						next++
						r.Write(holder, f, r.AllocTuple(mem.Int(next), mem.Int(7*next)).Value())
						field[f] = next
					case op == 2:
						for k := rng.Intn(6); k >= 0; k-- {
							r.Write(holder, f, r.Read(holder, f))
						}
					case op == 3:
						v := r.Read(holder, f)
						r.Write(holder, f, mem.Nil)
						r.Write(holder, f, v)
					case op == 4:
						g := rng.Intn(fields)
						r.Write(holder, g, r.Read(holder, f))
						field[g] = field[f]
					case op == 5:
						r.Write(holder, f, mem.Int(int64(step)))
						field[f] = 0
					case op == 6:
						if m := r.Read(mailCell, 0); m.IsRef() {
							s := rng.Intn(slots)
							r.Write(m.Ref(), s, r.Read(holder, f)) // cross-pointer: pins the target here
							mail[s] = field[f]
						}
					case op == 7:
						for i := 0; i < 40; i++ {
							r.AllocTuple(mem.Int(int64(i)), mem.Nil, mem.Nil) // garbage, to collect sooner
						}
					}
				}
				for f, want := range field {
					if v := r.Read(holder, f); v.IsRef() != (want != 0) || want != 0 && check(r, v) != want {
						t.Errorf("round %d: field %d holds %v, want target %d", round, f, v, want)
					}
				}
				if m := r.Read(mailCell, 0); m.IsRef() {
					for s, want := range mail {
						if v := r.Read(m.Ref(), s); want != 0 && check(r, v) != want {
							t.Errorf("round %d: mailbox slot %d leads to the wrong target, want %d", round, s, want)
						}
					}
				}
			}
			return mem.Nil
		},
	)
	// After the join everything is the parent's own.
	for f, want := range field {
		if v := tk.Read(holder, f); want != 0 && check(tk, v) != want {
			t.Errorf("after the join: field %d leads to the wrong target, want %d", f, want)
		}
	}
	if err := tk.ValidateHeaps(); err != nil {
		t.Error(err)
	}
	return mem.Nil
}

package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mplgo/internal/mem"
)

// The collection trigger points: however an allocation polls, a local
// collection fires at the allocation that finds the task's budget spent, and
// nowhere else. A fixed allocation sequence at a 256-word budget must collect
// at the same allocations, copying the same words, with no scope, under
// scopes entered and left mid-budget, with the concurrent collector on, and
// with a residency limit set.

// triggerAllocs is the length of the fixed sequence.
const triggerAllocs = 800

// wantTriggers are the allocation indices at which the sequence collects, and
// wantCopied the words those collections copy, in every setting below.
var (
	wantTriggers = []int{21, 29, 40, 48, 73, 80, 85, 95, 101, 114, 116, 119, 145, 152,
		156, 162, 169, 170, 172, 175, 178, 183, 189, 192, 198, 206, 212, 214, 222, 227,
		239, 243, 245, 250, 256, 266, 270, 285, 293, 297, 300, 309, 312, 316, 331, 345,
		350, 366, 378, 383, 389, 399, 409, 415, 422, 433, 438, 442, 447, 462, 466, 486,
		488, 489, 494, 500, 502, 508, 513, 538, 547, 556, 567, 579, 585, 591, 599, 611,
		615, 620, 632, 634, 641, 651, 655, 669, 671, 678, 690, 694, 711, 721, 731, 746,
		755, 766, 771, 783, 793}
	wantCopied = int64(50780)
)

// triggerPoints runs the fixed sequence under cfg and returns the indices of
// the allocations that ran a collection and the words collections copied.
// scoped runs alternate 97-allocation stretches under a fresh scope (with a
// budget it never reaches), so most scope switches happen mid-budget.
func triggerPoints(t *testing.T, cfg Config, scoped bool) ([]int, int64) {
	t.Helper()
	rt := New(cfg)
	var at []int
	_, err := rt.Run(func(tk *Task) mem.Value {
		live := tk.NewFrame(8)
		defer live.Pop()
		x := uint64(1)
		step := func(i int) {
			x = x*6364136223846793005 + 1442695040888963407
			k := int(x >> 33)
			before, _, _ := rt.GCStats()
			var r mem.Ref
			switch k % 4 {
			case 0:
				r = tk.AllocTuple(mem.Int(int64(i)), live.Get(k/4%8))
			case 1:
				r = tk.AllocArray(k/4%300, mem.Int(1))
			case 2:
				r = tk.AllocRef(live.Get(k / 4 % 8))
			default:
				r = tk.AllocString(strings.Repeat("x", k/4%40))
			}
			if n, _, _ := rt.GCStats(); n != before {
				at = append(at, i)
			}
			if i%5 == 0 {
				live.Set(i/5%8, r.Value())
			}
		}
		for i := 0; i < triggerAllocs; {
			end := min(i+97, triggerAllocs)
			run := func(*Task) mem.Value {
				for ; i < end; i++ {
					step(i)
				}
				return mem.Nil
			}
			if scoped && i/97%2 == 1 {
				tk.RunScoped(NewScope(nil, time.Time{}, 1<<40), run)
			} else {
				run(tk)
			}
		}
		return mem.Nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_, copied, _ := rt.GCStats()
	return at, copied
}

func TestCollectionTriggerPoints(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    Config
		scoped bool
	}{
		{"unscoped", Config{}, false},
		{"scoped", Config{}, true},
		// A threshold no run reaches: the collector is registered and every
		// allocation hook is on, but no cycle ever defers a collection.
		{"cgc", Config{CGC: true, CGCThresholdWords: 1 << 40}, false},
		{"max-heap", Config{MaxHeapWords: 1 << 40}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Procs, tc.cfg.HeapBudgetWords = 1, 256
			at, copied := triggerPoints(t, tc.cfg, tc.scoped)
			if fmt.Sprint(at) != fmt.Sprint(wantTriggers) || copied != wantCopied {
				t.Errorf("collections at %v copying %d words,\nwant %v copying %d", at, copied, wantTriggers, wantCopied)
			}
		})
	}
}

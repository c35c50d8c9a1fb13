// Running Parallel-ML source programs on the runtime: the language layer
// (lexer → parser → type inference → Go closures) compiles `par`, refs,
// and arrays onto the hierarchical heap; every activation's frame is a
// precise GC root and every effect goes through the entanglement barriers
// unless the disentanglement analysis proved the site.
//
// This example runs three embedded programs — a parallel Fibonacci, an
// imperative array program, and an entangled producer/consumer — and
// prints each result, its inferred type, and the runtime statistics.
//
//	go run ./examples/mlang
//
// Standalone programs run with: go run ./cmd/mplgo program.mpl
package main

import (
	"fmt"
	"log"

	"mplgo/internal/mlang"
	"mplgo/mpl"
)

var programs = []struct {
	name string
	src  string
}{
	{"parallel fib", `
let fun fib n =
  if n < 2 then n
  else if n < 12 then fib (n - 1) + fib (n - 2)
  else let val p = par (fib (n - 1), fib (n - 2)) in #1 p + #2 p end
in fib 24 end`},

	{"imperative sieve", `
let val n = 2000 in
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
in count 2 end end end end`},

	{"entangled handoff", `
let val cell = ref (ref 0) in
let val p = par (
    (cell := ref 41; 1),
    let fun poll u =
      let val v = ! (!cell) in
      if v = 41 then v + 1 else poll ()
      end
    in poll () end)
in #2 p end end`},
}

func main() {
	for _, p := range programs {
		res, err := mlang.Run(p.src, mpl.Config{Procs: 2})
		if err != nil {
			log.Fatalf("%s: %v", p.name, err)
		}
		s := res.Runtime.EntStats()
		fmt.Printf("%-20s val it = %s : %s\n", p.name+":", res.Rendered, res.Type)
		fmt.Printf("%-20s heaps=%d entangledReads=%d pins=%d unpins=%d\n",
			"", res.Runtime.Tree().Count(), s.EntangledReads, s.Pins, s.Unpins)
	}
}

// Package mplgo is a Go reproduction of the system from
//
//	Arora, Westrick, Acar. "Efficient Parallel Functional Programming
//	with Effects." PLDI 2023 (PACMPL 7, PLDI, 1558–1583).
//
// It implements MPL-style hierarchical heap memory management with
// entanglement management: a fork–join runtime whose heaps mirror the task
// tree, read/write barriers that detect entanglement at the granularity of
// memory objects, pinning with unpin depths, per-task local collections,
// and a small Parallel-ML-family language compiled onto the runtime.
//
// Start with package mpl (the public API), DESIGN.md (system inventory and
// experiment index), and EXPERIMENTS.md (paper-vs-measured results).
// The repo benchmark (benchmark/) measures time, space, elision and
// attribution; `go run ./cmd/mplgo-paper` writes every other table and
// figure as a validated CSV under scripts/paper/out.
package mplgo

//go:build !race

package mem

// storeRelaxed is the store the allocator uses for an object's header and
// initial payload, and the local collector for a forwarding header
// (Chunk.forward). Such a word may be loaded concurrently by a stale
// reader: an entanglement slow path that resolved a reference into the
// chunk's previous life before it was recycled (entangle.OnRead tests the
// header before it enters the owner's gate), or one holding a reference to
// a dead object whose span the concurrent sweep freed and the allocator is
// carving (allocFromFree). The reader loads atomically and acts only on
// what it re-validates under the gate, and the Go memory model lets a
// racing read of one word observe nothing but a value some write stored —
// so the store needs no ordering, only to be one word (DESIGN.md §6
// decisions 1 and 7 list the readers and what each re-validates). Go has no
// relaxed atomic store, and atomic.StoreUint64 is an XCHG on amd64 (on the
// header alone it cost 4 % of T1 and 13 % of Tbase on the benchmark's
// gc-churn workload, where every chunk is recycled). So the store is plain
// here and atomic under the race detector (relaxed_race.go), which then
// still vets every other access to these words.
func storeRelaxed(p *uint64, v uint64) { *p = v }

// copyRelaxed moves an object's payload into to-space for the local
// collector (Allocator.CopyIn): storeRelaxed for a run of words, and for
// the same reason one memmove here and an atomic loop under the race
// detector. The source is a from-space object the collector has claimed.
func copyRelaxed(dst, src []uint64) { copy(dst, src) }

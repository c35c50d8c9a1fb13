//go:build race

package mem

import "sync/atomic"

// storeRelaxed: see relaxed_norace.go. Atomic under the race detector.
func storeRelaxed(p *uint64, v uint64) { atomic.StoreUint64(p, v) }

// copyRelaxed: see relaxed_norace.go. Word by word and atomic under the
// race detector.
func copyRelaxed(dst, src []uint64) {
	for i := range dst {
		atomic.StoreUint64(&dst[i], atomic.LoadUint64(&src[i]))
	}
}

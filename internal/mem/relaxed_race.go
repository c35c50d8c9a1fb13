//go:build race

package mem

import "sync/atomic"

// storeRelaxed: see relaxed_norace.go. Atomic under the race detector.
func storeRelaxed(p *uint64, v uint64) { atomic.StoreUint64(p, v) }

// Package forkpath implements DePa-style fork-path words: the immutable
// per-heap ancestry representation that serves as the runtime's SP-order
// oracle, in place of a shared order-maintenance list.
//
// Following *DePa: Simple, Provably Efficient, and Practical Order
// Maintenance for Task Parallelism* (Westrick, Wang, Acar), each heap
// carries the path of fork choices that created it, packed into machine
// words and assigned exactly once at Fork. Ancestry then needs no shared
// mutable state at all:
//
//   - IsAncestor(a, d) is "a's path is a bit-prefix of d's path" — a
//     handful of word compares over immutable data;
//   - the depth of LCA(a, b) is a longest-common-prefix computation —
//     XOR + trailing-zero-count to find the divergence bit, then a
//     popcount of the edge-boundary plane below it.
//
// Because the words are immutable after construction, queries are pure
// loads: no seqlock, no retry loop, no relabeling, no label-space
// exhaustion, and unbounded task counts.
//
// # Encoding
//
// A path is a pair of bit strings of equal length (LSB-first within each
// 64-bit word):
//
//   - the *bits plane* concatenates, for each edge root→heap, the minimal
//     binary encoding (MSB first) of that edge's per-parent fork sequence
//     number (1, 2, 3, ... — parents number their children in fork order
//     and never reuse a number);
//   - the *ends plane* has a 1 at the last bit position of each edge code,
//     marking where codes end.
//
// Comparing both planes together makes prefix-freeness unnecessary: if
// path P is a bit-prefix of path Q in *both* planes, the end markers
// align, so P's edge-code sequence is a prefix of Q's — and since
// sequence numbers are never reused, equal code sequences identify the
// same historical tree node. Ancestry answered from fork paths is
// therefore exact with respect to the true (append-only) fork tree, even
// for heaps that have since merged away — strictly more deterministic
// than the retired label list, whose deleted tags answered with a frozen
// snapshot that could alias later insertions.
//
// The per-parent sequence number (rather than DePa's single left/right
// bit) is what keeps the encoding exact across re-forks: a parent heap
// outlives its joins and forks again, and its new children must not share
// a path with the merged ones, whose paths still answer for pins taken
// through them.
//
// # Representation
//
// Paths up to 128 bits per plane (the overwhelmingly common case: depth
// ~d costs ~2·log2(fanout)·d bits) live inline in the Path value; longer
// paths spill both planes into one heap-allocated word vector. A spilled
// Path is immutable like any other — the spill happens once, at
// construction. ChildSpilled forces the spilled representation below the
// threshold so tests and the chaos layer (chaos.PathSpill) can exercise
// the promotion path on shallow trees.
package forkpath

import (
	"fmt"
	"math/bits"
	"strings"
)

// inlineWords is the number of 64-bit words per plane held inline in a
// Path value; paths longer than inlineWords*64 bits spill to ext.
const inlineWords = 2

// inlineBits is the inline capacity of one plane, in bits.
const inlineBits = inlineWords * 64

// ext holds the spilled planes of a long path: both planes in one
// allocation, bits first, ends second, each words long.
type ext struct {
	words int
	w     []uint64 // len 2*words: bits plane then ends plane
}

// Path is an immutable fork path. The zero value is the root path (depth
// 0, no bits). Path is a small value type: copying it copies the inline
// words and shares the (immutable) spill vector.
type Path struct {
	bitLen uint32
	depth  uint32
	bits   [inlineWords]uint64
	ends   [inlineWords]uint64
	x      *ext
}

// Root returns the root path (also the zero value).
func Root() Path { return Path{} }

// Depth returns the number of edges on the path (root = 0).
func (p *Path) Depth() int { return int(p.depth) }

// BitLen returns the path's length in bits per plane.
func (p *Path) BitLen() int { return int(p.bitLen) }

// Spilled reports whether the path uses the spilled (heap-allocated word
// vector) representation.
func (p *Path) Spilled() bool { return p.x != nil }

// planes returns the two planes as word slices, valid while p is alive.
func (p *Path) planes() (b, e []uint64) {
	if x := p.x; x != nil {
		return x.w[:x.words], x.w[x.words:]
	}
	return p.bits[:], p.ends[:]
}

// Child returns the path of the seq-th child (seq ≥ 1; parents must
// never reuse a sequence number between live children).
func (p Path) Child(seq uint64) Path { return p.child(seq, false) }

// ChildSpilled is Child but forces the spilled representation even when
// the result would fit inline, for tests and fault injection of the
// inline→vector promotion path.
func (p Path) ChildSpilled(seq uint64) Path { return p.child(seq, true) }

func (p Path) child(seq uint64, forceSpill bool) Path {
	if seq == 0 {
		panic("forkpath: child sequence numbers start at 1")
	}
	codeLen := uint32(bits.Len64(seq))
	n := Path{bitLen: p.bitLen + codeLen, depth: p.depth + 1}
	var nb, ne []uint64
	if forceSpill || p.x != nil || n.bitLen > inlineBits {
		words := int(n.bitLen+63) / 64
		x := &ext{words: words, w: make([]uint64, 2*words)}
		pb, pe := p.planes()
		pw := int(p.bitLen+63) / 64
		copy(x.w[:words], pb[:pw])
		copy(x.w[words:], pe[:pw])
		n.x = x
		nb, ne = x.w[:words], x.w[words:]
	} else {
		n.bits, n.ends = p.bits, p.ends
		nb, ne = n.bits[:], n.ends[:]
	}
	// Append the edge code MSB-first; every bit lands above the parent's
	// bitLen, so the parent's invariant (bits above bitLen are zero)
	// guarantees plain ORs suffice.
	pos := p.bitLen
	for k := int(codeLen) - 1; k >= 0; k-- {
		if seq>>uint(k)&1 != 0 {
			nb[pos>>6] |= 1 << (pos & 63)
		}
		pos++
	}
	ne[(n.bitLen-1)>>6] |= 1 << ((n.bitLen - 1) & 63)
	return n
}

// IsPrefix reports whether a is an ancestor of (or equal to) the node
// with path b: a's planes are bit-prefixes of b's. Pure reads of
// immutable words — safe from any goroutine with no synchronization.
func IsPrefix(a, b *Path) bool {
	if a.bitLen > b.bitLen {
		return false
	}
	if a.bitLen == 0 {
		return true
	}
	ab, ae := a.planes()
	bb, be := b.planes()
	full := int(a.bitLen >> 6)
	for i := 0; i < full; i++ {
		if ab[i] != bb[i] || ae[i] != be[i] {
			return false
		}
	}
	if r := a.bitLen & 63; r != 0 {
		m := uint64(1)<<r - 1
		if (ab[full]^bb[full])&m != 0 || (ae[full]^be[full])&m != 0 {
			return false
		}
	}
	return true
}

// LCADepth returns the depth of the least common ancestor of the nodes
// with paths a and b: the number of whole edge codes inside the longest
// common prefix of both planes. Like IsPrefix, pure immutable reads.
func LCADepth(a, b *Path) int {
	minLen := a.bitLen
	if b.bitLen < minLen {
		minLen = b.bitLen
	}
	ab, ae := a.planes()
	bb, be := b.planes()
	// Find the first bit position where either plane diverges.
	l := minLen
	for i, nw := 0, int(minLen+63)>>6; i < nw; i++ {
		if diff := (ab[i] ^ bb[i]) | (ae[i] ^ be[i]); diff != 0 {
			if d := uint32(i<<6) + uint32(bits.TrailingZeros64(diff)); d < l {
				l = d
			}
			break
		}
	}
	// Depth of the LCA = end markers strictly below the divergence: each
	// marks one whole shared edge code.
	depth := 0
	for i := 0; i < int(l>>6); i++ {
		depth += bits.OnesCount64(ae[i])
	}
	if r := l & 63; r != 0 {
		depth += bits.OnesCount64(ae[l>>6] & (uint64(1)<<r - 1))
	}
	return depth
}

// Equal reports whether a and b are the same path.
func Equal(a, b *Path) bool {
	return a.bitLen == b.bitLen && IsPrefix(a, b)
}

// String renders the path as its edge sequence numbers, for debugging
// and test failure messages.
func (p *Path) String() string {
	if p.bitLen == 0 {
		return "/"
	}
	b, e := p.planes()
	var sb strings.Builder
	var seq uint64
	for i := uint32(0); i < p.bitLen; i++ {
		seq = seq<<1 | b[i>>6]>>(i&63)&1
		if e[i>>6]>>(i&63)&1 != 0 {
			fmt.Fprintf(&sb, "/%d", seq)
			seq = 0
		}
	}
	return sb.String()
}

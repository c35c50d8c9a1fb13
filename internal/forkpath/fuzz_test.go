package forkpath

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// codeNode is a node of the fuzzed fork tree: its edge codes from the root
// (the model), the path built with Child all the way down (inline until it
// outgrows inlineBits), and a twin built spilled.
type codeNode struct {
	codes   []uint64
	inline  Path
	spilled Path
	next    uint64 // the last sequence number this node handed out
}

// forkScript turns ops into a fork tree, two bytes per fork: the first
// picks the parent among the nodes so far, the second the child's sequence
// number — 2^(b%64) when that is above the parent's last one, else the next
// — so codes run from 1 to 64 bits and a few forks cross the inline/spill
// boundary. Bit 6 of the second byte builds the spilled twin with Child
// under a spilled parent (it inherits the spill) rather than ChildSpilled.
func forkScript(ops []byte) []*codeNode {
	const maxNodes = 64
	nodes := []*codeNode{{}}
	for i := 0; i+1 < len(ops) && len(nodes) < maxNodes; i += 2 {
		p := nodes[int(ops[i])%len(nodes)]
		seq := p.next + 1
		if want := uint64(1) << (ops[i+1] % 64); want > p.next {
			seq = want
		}
		p.next = seq
		n := &codeNode{
			codes:  append(slices.Clip(p.codes), seq),
			inline: p.inline.Child(seq),
		}
		if ops[i+1]&0x40 != 0 && p.spilled.Spilled() {
			n.spilled = p.spilled.Child(seq)
		} else {
			n.spilled = p.spilled.ChildSpilled(seq)
		}
		nodes = append(nodes, n)
	}
	return nodes
}

// parsePath reads a String back into edge codes.
func parsePath(s string) ([]uint64, error) {
	if s == "/" {
		return nil, nil
	}
	if !strings.HasPrefix(s, "/") {
		return nil, fmt.Errorf("%q does not start with /", s)
	}
	var codes []uint64
	for _, f := range strings.Split(s[1:], "/") {
		c, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return nil, err
		}
		codes = append(codes, c)
	}
	return codes, nil
}

// checkNode checks one representation of a node against the model.
func checkNode(t *testing.T, n *codeNode, p *Path, spilled bool) {
	t.Helper()
	bitLen := 0
	for _, c := range n.codes {
		bitLen += bits.Len64(c)
	}
	if p.Depth() != len(n.codes) || p.BitLen() != bitLen {
		t.Fatalf("%v: depth %d bits %d, model %d and %d", n.codes, p.Depth(), p.BitLen(), len(n.codes), bitLen)
	}
	if want := spilled && len(n.codes) > 0 || bitLen > inlineBits; p.Spilled() != want {
		t.Fatalf("%v (%d bits): spilled %v, want %v", n.codes, bitLen, p.Spilled(), want)
	}
	s := p.String()
	back, err := parsePath(s)
	if err != nil || !slices.Equal(back, n.codes) {
		t.Fatalf("String %q reads back as %v (%v), model %v", s, back, err, n.codes)
	}
}

// FuzzForkPath builds a fork tree from a byte script, every path both
// inline and spilled, and checks IsPrefix, LCADepth, Equal and the String
// round trip of every pair of nodes, in all four pairings of the two
// representations, against the slice of edge codes each node models.
func FuzzForkPath(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 1, 0, 2, 0})                    // /1, /2, /1/1, /2/1
	f.Add([]byte{0, 63, 1, 63, 2, 0, 0, 0x40 | 62, 4, 0x40}) // 64-bit codes: past the inline planes at the third edge
	f.Add([]byte{0, 1, 0, 0, 1, 0, 2, 0, 0, 2})              // /2, /3, /2/1, /3/1, /4: codes that share bit patterns
	f.Fuzz(func(t *testing.T, ops []byte) {
		nodes := forkScript(ops)
		for _, n := range nodes {
			checkNode(t, n, &n.inline, false)
			checkNode(t, n, &n.spilled, true)
		}
		for _, a := range nodes {
			for _, b := range nodes {
				lca := 0
				for lca < min(len(a.codes), len(b.codes)) && a.codes[lca] == b.codes[lca] {
					lca++
				}
				prefix := lca == len(a.codes)
				equal := prefix && len(a.codes) == len(b.codes)
				for _, pa := range []*Path{&a.inline, &a.spilled} {
					for _, pb := range []*Path{&b.inline, &b.spilled} {
						if got := IsPrefix(pa, pb); got != prefix {
							t.Fatalf("IsPrefix(%s, %s) = %v, model %v", pa, pb, got, prefix)
						}
						if got := LCADepth(pa, pb); got != lca {
							t.Fatalf("LCADepth(%s, %s) = %d, model %d", pa, pb, got, lca)
						}
						if got := Equal(pa, pb); got != equal {
							t.Fatalf("Equal(%s, %s) = %v, model %v", pa, pb, got, equal)
						}
					}
				}
			}
		}
	})
}

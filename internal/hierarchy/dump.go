package hierarchy

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"mplgo/internal/mem"
)

// Heap-tree introspection: a race-safe snapshot of the live hierarchy for
// the /debug/heaptree endpoint and offline dumps. The snapshot reads only
// immutable fields (ID, parent, depth, chunk capacity) and atomics (dead,
// liveChildren, cgcStatus, chunk heap ids), so it can run from any
// goroutine while the computation is in full flight — it never touches the
// owner-only views (Chunks, Pinned, Remset) that the running task mutates
// without synchronization. Per-heap sizes are therefore reconstructed from
// the chunk table (grouped by each chunk's atomic heap id) rather than read
// off the heaps. Nothing race-safe counts one heap's pins (a pin lives in
// its header and the owner-only Pinned), so only the tree's total is shown.

// cgcStateNames maps the status word to its display name.
var cgcStateNames = [...]string{
	cgcActive:   "active",
	cgcParked:   "parked",
	cgcScoped:   "scoped",
	cgcSweeping: "sweeping",
}

// CGCStateName returns the heap's concurrent-collection status as a string:
// "active", "parked", "scoped", or "sweeping". Safe from any goroutine;
// the value is a snapshot and may be stale by the time it is observed.
func (h *Heap) CGCStateName() string {
	s := h.cgcStatus.Load()
	if int(s) < len(cgcStateNames) {
		return cgcStateNames[s]
	}
	return fmt.Sprintf("unknown(%d)", s)
}

// HeapDump is the introspection record for one live heap.
type HeapDump struct {
	ID           uint32 `json:"id"`
	Parent       uint32 `json:"parent,omitempty"` // 0 for the root
	Depth        int    `json:"depth"`
	LiveChildren int    `json:"live_children"`
	CGCState     string `json:"cgc_state"`
	Chunks       int    `json:"chunks"`
	Words        int64  `json:"words"`
}

// TreeDump is a point-in-time snapshot of the live heap hierarchy. Pinned
// is the tree's count of pinned objects, which DumpTree leaves zero for
// the caller to fill from the pin gauge (entangle.StatsSnapshot.PinnedNow).
type TreeDump struct {
	Heaps      []HeapDump `json:"heaps"`
	LiveHeaps  int        `json:"live_heaps"`
	TotalWords int64      `json:"total_words"`
	Pinned     int64      `json:"pinned"`
}

// DumpTree snapshots the live heap hierarchy. Chunk counts and sizes come
// from one pass over the chunk table; a chunk whose owner died between the
// heap walk and the chunk walk is dropped (its words reappear under the
// parent on the next snapshot). The result is ordered by heap id, parents
// before children.
func (t *Tree) DumpTree(space *mem.Space) *TreeDump {
	type agg struct {
		chunks int
		words  int64
	}
	live := t.Live()
	byID := make(map[uint32]*agg, len(live))
	for _, h := range live {
		byID[h.ID] = &agg{}
	}
	space.ForEachChunk(func(c *mem.Chunk) {
		a := byID[c.HeapID()]
		if a == nil {
			return // released, or owned by a heap that just merged away
		}
		a.chunks++
		a.words += int64(c.Words())
	})
	d := &TreeDump{LiveHeaps: len(live)}
	for _, h := range live {
		a := byID[h.ID]
		var parent uint32
		if h.parent != nil {
			parent = h.parent.ID
		}
		d.Heaps = append(d.Heaps, HeapDump{
			ID:           h.ID,
			Parent:       parent,
			Depth:        h.depth,
			LiveChildren: h.LiveChildren(),
			CGCState:     h.CGCStateName(),
			Chunks:       a.chunks,
			Words:        a.words,
		})
		d.TotalWords += a.words
	}
	sort.Slice(d.Heaps, func(i, j int) bool { return d.Heaps[i].ID < d.Heaps[j].ID })
	return d
}

// WriteJSON writes the snapshot as indented JSON.
func (d *TreeDump) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// dotColors shades nodes by CGC state so a claimed subtree is visible at a
// glance in the rendered graph.
var dotColors = map[string]string{
	"active":   "white",
	"parked":   "lightgrey",
	"scoped":   "lightblue",
	"sweeping": "lightsalmon",
}

// WriteDOT writes the snapshot as a Graphviz digraph: one node per live
// heap (labelled with depth and size, coloured by CGC state), one edge per
// parent link.
func (d *TreeDump) WriteDOT(w io.Writer) error {
	var err error
	pr := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	pr("digraph heaps {\n")
	pr("  node [shape=box, style=filled, fontname=\"monospace\"];\n")
	for _, h := range d.Heaps {
		color := dotColors[h.CGCState]
		if color == "" {
			color = "white"
		}
		pr("  h%d [label=\"heap %d\\ndepth %d · %s\\n%d chunks / %d words\", fillcolor=%q];\n",
			h.ID, h.ID, h.Depth, h.CGCState, h.Chunks, h.Words, color)
	}
	for _, h := range d.Heaps {
		if h.Parent != 0 {
			pr("  h%d -> h%d;\n", h.Parent, h.ID)
		}
	}
	pr("}\n")
	return err
}

// Package mem implements the simulated heap that underlies the runtime:
// tagged machine words, chunked arenas, object headers, and bump allocation.
// A chunk is a record over part of an arena, with a capacity of its own:
// an allocator whose branch has returned gives back the unused tail of its
// last chunk as a chunk the next refill takes (Space.GiveBack).
//
// The Go garbage collector never sees the object graph built here. Objects
// live inside large []uint64 chunks; references are tagged word values that
// encode (chunk, offset) pairs. All tracing, copying, pinning, and
// reclamation of these objects is performed by this library's collectors
// (package gc), exactly as in MPL's hierarchical runtime. This is the
// substitution DESIGN.md documents for "built-in GC conflicts with custom
// heap hierarchy": reifying the heap lets us own object lifetime completely.
package mem

import "fmt"

// Value is a tagged machine word, the universal datum of the runtime.
// Like MPL (and most ML runtimes) the low bit distinguishes immediates
// from pointers:
//
//	xxxx...x1  — a 63-bit signed integer (shifted left one bit)
//	xxxx...x0  — a reference (see Ref), or Nil when zero
type Value uint64

// Nil is the null reference value.
const Nil Value = 0

// Int makes an immediate integer value. The integer is truncated to 63 bits.
func Int(i int64) Value { return Value(uint64(i)<<1 | 1) }

// Bool makes an immediate boolean value (false=0, true=1).
func Bool(b bool) Value {
	if b {
		return Int(1)
	}
	return Int(0)
}

// IsInt reports whether v is an immediate integer.
func (v Value) IsInt() bool { return v&1 == 1 }

// AsInt returns the immediate integer stored in v.
// It must only be called when IsInt reports true.
func (v Value) AsInt() int64 { return int64(v) >> 1 }

// AsBool interprets an immediate integer as a boolean.
func (v Value) AsBool() bool { return v.AsInt() != 0 }

// IsRef reports whether v is a non-nil reference.
func (v Value) IsRef() bool { return v != 0 && v&1 == 0 }

// IsNil reports whether v is the null reference.
func (v Value) IsNil() bool { return v == 0 }

// Ref returns the reference stored in v.
// It must only be called when IsRef reports true.
func (v Value) Ref() Ref { return Ref(v) }

// String renders the value for diagnostics.
func (v Value) String() string {
	switch {
	case v.IsInt():
		return fmt.Sprintf("%d", v.AsInt())
	case v.IsNil():
		return "nil"
	default:
		return v.Ref().String()
	}
}

// Ref is a reference to a heap object: the packed pair (chunk, offset)
// shifted left one bit so that references are valid (even) Values.
// The offset addresses the object's header word within the chunk.
type Ref uint64

const (
	offBits = 26 // max object size: 2^26 words (512 MiB) per chunk
	offMask = (1 << offBits) - 1
)

// MakeRef packs a chunk index and word offset into a reference.
func MakeRef(chunk uint32, off int) Ref {
	return Ref((uint64(chunk)<<offBits | uint64(off)) << 1)
}

// Chunk returns the chunk index addressed by r.
func (r Ref) Chunk() uint32 { return uint32(uint64(r) >> 1 >> offBits) }

// Off returns the word offset of the object header within its chunk.
func (r Ref) Off() int { return int(uint64(r) >> 1 & offMask) }

// Value converts the reference to a tagged value.
func (r Ref) Value() Value { return Value(r) }

// String renders the reference for diagnostics.
func (r Ref) String() string {
	return fmt.Sprintf("#%d:%d", r.Chunk(), r.Off())
}

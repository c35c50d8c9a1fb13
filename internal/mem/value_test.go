package mem

import (
	"testing"
	"testing/quick"
)

func TestIntTagging(t *testing.T) {
	for _, i := range []int64{0, 1, -1, 42, -42, 1 << 40, -(1 << 40), (1 << 62) - 1, -(1 << 62)} {
		v := Int(i)
		if !v.IsInt() {
			t.Fatalf("Int(%d) not IsInt", i)
		}
		if v.IsRef() || v.IsNil() && i != 0 {
			t.Fatalf("Int(%d) misclassified", i)
		}
		if got := v.AsInt(); got != i {
			t.Fatalf("Int(%d).AsInt() = %d", i, got)
		}
	}
}

func TestIntRoundTripQuick(t *testing.T) {
	f := func(i int64) bool {
		// Immediates carry 63 bits; normalize the expectation.
		want := i << 1 >> 1
		return Int(i).AsInt() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBool(t *testing.T) {
	if !Bool(true).AsBool() || Bool(false).AsBool() {
		t.Fatal("bool encoding broken")
	}
	if !Bool(true).IsInt() {
		t.Fatal("bools must be immediates")
	}
}

func TestNil(t *testing.T) {
	if !Nil.IsNil() || Nil.IsRef() || Nil.IsInt() {
		t.Fatal("Nil misclassified")
	}
	if Nil.String() != "nil" {
		t.Fatalf("Nil.String() = %q", Nil.String())
	}
}

func TestRefPacking(t *testing.T) {
	cases := []struct {
		chunk uint32
		off   int
	}{
		{1, 0}, {1, 1}, {7, 4095}, {1 << 20, 12345}, {maxChunks - 1, (1 << offBits) - 1},
	}
	for _, c := range cases {
		r := MakeRef(c.chunk, c.off)
		if r.Chunk() != c.chunk || r.Off() != c.off {
			t.Fatalf("MakeRef(%d,%d) decoded to (%d,%d)", c.chunk, c.off, r.Chunk(), r.Off())
		}
		v := r.Value()
		if !v.IsRef() || v.Ref() != r {
			t.Fatalf("ref %v not a valid Value", r)
		}
	}
}

func TestRefPackingQuick(t *testing.T) {
	f := func(chunk uint32, off uint32) bool {
		chunk %= maxChunks
		if chunk == 0 {
			chunk = 1
		}
		o := int(off) % (1 << offBits)
		r := MakeRef(chunk, o)
		return r.Chunk() == chunk && r.Off() == o && r.Value().IsRef()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRefsAreNotInts(t *testing.T) {
	f := func(chunk uint32, off uint32) bool {
		r := MakeRef(chunk%maxChunks, int(off)%(1<<offBits))
		return !r.Value().IsInt()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderEncoding(t *testing.T) {
	for _, k := range []Kind{KTuple, KArray, KRefCell, KRaw} {
		for _, n := range []int{0, 1, 2, 100, 1 << 20} {
			h := Header(MakeHeader(k, n))
			if h.Kind() != k {
				t.Fatalf("kind %v decoded as %v", k, h.Kind())
			}
			if h.Len() != n {
				t.Fatalf("len %d decoded as %d", n, h.Len())
			}
			if !h.Valid() || h.Pinned() || h.Candidate() {
				t.Fatalf("fresh header %v has stray flags", h)
			}
		}
	}
}

func TestKindProperties(t *testing.T) {
	if !KArray.Mutable() || !KRefCell.Mutable() {
		t.Fatal("arrays and refs must be mutable")
	}
	if KTuple.Mutable() || KRaw.Mutable() {
		t.Fatal("tuples and raw data must be immutable")
	}
	if !KTuple.Scanned() || !KArray.Scanned() || !KRefCell.Scanned() {
		t.Fatal("pointerful kinds must be scanned")
	}
	if KRaw.Scanned() {
		t.Fatal("raw payloads must not be scanned")
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KForward: "forward", KTuple: "tuple", KArray: "array",
		KRefCell: "ref", KRaw: "raw", Kind(7): "invalid",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

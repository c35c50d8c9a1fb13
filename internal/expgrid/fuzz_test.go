package expgrid

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzLoadSpec: any bytes end in an error or in a spec that re-marshals to
// itself — the marshalled spec loads to an equal spec, which marshals to
// the same bytes — never in a panic. The seeds are the checked-in grids and
// a few shapes of procs, one with the key given twice (the last one counts,
// as for every other key), and a spec with a half-written one after it.
func FuzzLoadSpec(f *testing.F) {
	for _, name := range []string{"experiments.json", "experiments-ci.json", "trace.json"} {
		data, err := os.ReadFile(filepath.Join("../../scripts/paper", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, src := range []string{
		`{"experiments":[{"bench":"msort","procs":"sweep"}]}`,
		`{"defaults":{"procs":[1,"cores"],"warmups":-1},"experiments":[{"bench":"fib","n":20}]}`,
		`{"experiments":[{"bench":"msort","procs":"sweep","procs":[1,2]}]}`,
		`{"brent_c":2.5,"experiments":[{"bench":"pipeline","procs":[1],"mode":"detect","label":"p"}]}`,
		`{"experiments":[{"bench":"msort","procs":[1]}]} {"name": oops`,
	} {
		f.Add([]byte(src))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := parseSpec(data)
		if err != nil {
			return
		}
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("a loaded spec does not marshal: %v", err)
		}
		again, err := parseSpec(out)
		if err != nil {
			t.Fatalf("the marshalled spec does not load: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(s, again) {
			t.Fatalf("the marshalled spec loads to another spec:\n%+v\n%+v\n%s", s, again, out)
		}
		if out2, _ := json.Marshal(again); !bytes.Equal(out, out2) {
			t.Fatalf("the spec marshals to\n%s\nthen to\n%s", out, out2)
		}
	})
}

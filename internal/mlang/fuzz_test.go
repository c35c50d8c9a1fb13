package mlang

import "testing"

// FuzzFrontEnd feeds arbitrary bytes through the front end: Parse, then
// Analyze and Check. Every input must end in an error or a program, never a
// Go panic; Analyze must accept exactly what Check accepts; and a program
// that checks must compile in both builds. The seed corpus is
// testdata/fuzz/FuzzFrontEnd plus the differential corpus.
func FuzzFrontEnd(f *testing.F) {
	for _, c := range diffCorpus {
		f.Add([]byte(c.src))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		ast, err := Parse(string(src))
		if err != nil {
			return
		}
		an, aerr := Analyze(ast)
		if _, cerr := Check(ast); (aerr == nil) != (cerr == nil) {
			t.Fatalf("Analyze says %v, Check says %v", aerr, cerr)
		}
		if aerr != nil {
			return
		}
		if _, err := CompileWith(ast, an); err != nil {
			t.Fatalf("elided build: %v", err)
		}
		if _, err := Compile(ast); err != nil {
			t.Fatalf("checked build: %v", err)
		}
	})
}

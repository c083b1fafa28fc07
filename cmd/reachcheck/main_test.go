package main

import (
	"os"
	"sort"
	"strings"
	"testing"
)

// TestScanMapsDeclarationsToSymbols runs the gate's declaration-to-symbol
// mapping over the fixture package testdata/reach. If the toolchain
// changes how it names symbols, this fails on the declaration whose shape
// it broke, not only as a long allowlist diff.
func TestScanMapsDeclarationsToSymbols(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	decls, linked, refs, err := scan(root, ".", t.TempDir(), "./testdata/reach")
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		sym     string
		linked  bool // the binary carries the symbol
		example bool // a godoc Example references it
	}{
		{"main.T.Value", true, false},      // value receiver
		{"main.(*T).Pointer", true, false}, // pointer receiver
		{"main.T.deadValue", false, false}, // value receiver, never called
		{"main.(*T).deadPointer", false, false},
		{"main.Gen[...]", true, false},      // generic function
		{"main.deadGen[...]", false, false}, // generic, never instantiated
		{"main.(*Box[...]).Get", true, false},
		{"main.Box[...].deadPeek", false, false},
		{"main.viaClosure", true, false}, // called only from a closure
		{"main.exampleOnly", false, true},
		{"main.dead", false, false},
		{"main.main", true, false},
	}
	got := map[string]decl{}
	for _, d := range decls {
		got[d.Sym] = d
	}
	var mainSyms []string
	for s := range linked {
		if strings.HasPrefix(s, "repro/cmd/reachcheck/testdata/reach.") {
			mainSyms = append(mainSyms, s)
		}
	}
	sort.Strings(mainSyms)
	for _, w := range want {
		d, ok := got[w.sym]
		if !ok {
			t.Errorf("no declaration maps to %s; the fixture's declarations map to %v", w.sym, keys(got))
			continue
		}
		delete(got, w.sym)
		if d.File != "testdata/reach/main.go" {
			t.Errorf("%s: file %q, want testdata/reach/main.go", w.sym, d.File)
		}
		if linked[d.Link] != w.linked {
			t.Errorf("%s: linked = %v, want %v: linker name %q, the binary's fixture symbols %q",
				w.sym, linked[d.Link], w.linked, d.Link, mainSyms)
		}
		if refs[d.Link] != w.example {
			t.Errorf("%s: referenced by an Example = %v, want %v", w.sym, refs[d.Link], w.example)
		}
	}
	if len(got) > 0 {
		t.Errorf("fixture declarations missing from the table: %v", keys(got))
	}
}

func keys(m map[string]decl) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// TestSymbolMatchesLinkerSpelling pins each declaration form to the name
// `go tool nm` prints for it, with the package path stripped.
func TestSymbolMatchesLinkerSpelling(t *testing.T) {
	const src = `package p
func F() {}
func (T) Value() {}
func (*T) Ptr() {}
func (G[K]) GenValue() {}
func (*H[K, V]) GenPtr() {}
`
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"F", "T.Value", "(*T).Ptr", "G.GenValue", "(*H).GenPtr"}
	for i, d := range f.Decls {
		if got := symbol(d.(*ast.FuncDecl)); got != want[i] {
			t.Errorf("decl %d: symbol = %q, want %q", i, got, want[i])
		}
	}
}

func TestStripTypeArgs(t *testing.T) {
	for in, want := range map[string]string{
		"everyware/internal/core.Daemons[go.shape.*uint8]":                           "everyware/internal/core.Daemons",
		"everyware/internal/outbox.(*Pending[go.shape.string,go.shape.[]uint8]).Put": "everyware/internal/outbox.(*Pending).Put",
		"everyware/internal/outbox.(*Pending[go.shape.struct { a int }]).Take.func1": "everyware/internal/outbox.(*Pending).Take.func1",
		"everyware/internal/condor.(*Pool).Submit":                                   "everyware/internal/condor.(*Pool).Submit",
	} {
		if got := stripTypeArgs(in); got != want {
			t.Errorf("stripTypeArgs(%q) = %q, want %q", in, got, want)
		}
	}
}

package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
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

// TestMarkWritesSkipsDefaults pins what counts as setting a field: a
// composite-literal key or an assignment does; an assignment inside an if
// whose condition reads the same field (a default) does not, and neither
// does a read.
func TestMarkWritesSkipsDefaults(t *testing.T) {
	const src = `package p
type Config struct{ Key, Assigned, Defaulted, Read, Elsewhere int }
func fill(c *Config) {
	if c.Defaulted <= 0 {
		c.Defaulted = 1
	}
	if c.Read > 0 {
		c.Elsewhere = c.Read
	}
	c.Assigned = 2
	_ = Config{Key: 1}
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
	pkg, err := new(types.Config).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	written := map[*types.Var]bool{}
	markWrites(f, info, written)
	st := pkg.Scope().Lookup("Config").Type().Underlying().(*types.Struct)
	for i := 0; i < st.NumFields(); i++ {
		v := st.Field(i)
		want := v.Name() == "Key" || v.Name() == "Assigned" || v.Name() == "Elsewhere"
		if written[v] != want {
			t.Errorf("%s written = %v, want %v", v.Name(), written[v], want)
		}
	}
}

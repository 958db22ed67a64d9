package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// writeUnset writes to path, one "importpath/file.go:line:<TAB>Type.Field"
// line each, every field of a struct type named *Config under internal/
// that no non-test file in the module writes, and returns how many fields
// those types declare. A write is a composite-literal key or an assignment
// to the field. A default is not a write: an assignment inside an if whose
// condition reads the same field.
//
// Each package is type-checked from source; the packages it imports come
// from the source importer, a second copy of the same declarations, so a
// field is known by where it is declared rather than by its object.
func writeUnset(path string) int {
	fset := token.NewFileSet()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	list := goCmd("", "list", "-f", `{{.ImportPath}}{{"\t"}}{{.Dir}}{{range .GoFiles}}{{"\t"}}{{.}}{{end}}`, "./...")
	fields := map[string]string{} // declaration position -> listing line
	written := map[string]bool{}  // declaration positions of written fields
	for _, line := range strings.Split(strings.TrimSpace(list), "\n") {
		f := strings.Split(line, "\t")
		var files []*ast.File
		for _, name := range f[2:] {
			file, err := parser.ParseFile(fset, filepath.Join(f[1], name), nil, parser.SkipObjectResolution)
			if err != nil {
				log.Fatal(err)
			}
			files = append(files, file)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
		pkg, err := conf.Check(f[0], fset, files, info)
		if err != nil {
			log.Fatalf("type-check %s: %v", f[0], err)
		}
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			st, ok := obj.Type().Underlying().(*types.Struct)
			if _, isType := obj.(*types.TypeName); !isType || !ok || !strings.HasSuffix(name, "Config") || !strings.Contains(f[0], "/internal/") {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				pos := fset.Position(st.Field(i).Pos())
				rel, _ := filepath.Rel(f[1], pos.Filename) // pos is in f[1]
				fields[pos.String()] = fmt.Sprintf("%s/%s:%d:\t%s.%s", f[0], rel, pos.Line, name, st.Field(i).Name())
			}
		}
		vars := map[*types.Var]bool{}
		for _, file := range files {
			markWrites(file, info, vars)
		}
		for v := range vars {
			written[fset.Position(v.Pos()).String()] = true
		}
	}

	var lines []string
	for pos, line := range fields {
		if !written[pos] {
			lines = append(lines, line+"\n")
		}
	}
	sort.Strings(lines)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		log.Fatal(err)
	}
	return len(fields)
}

// markWrites records in written every field file writes, as a composite
// literal key or on the left of an assignment that is not the default
// branch of an if reading the same field.
func markWrites(file *ast.File, info *types.Info, written map[*types.Var]bool) {
	var ifs []*ast.IfStmt // the if statements enclosing the node being visited
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			ifs = append(ifs, n)
			ast.Inspect(n.Body, visit)
			if n.Else != nil {
				ast.Inspect(n.Else, visit)
			}
			ifs = ifs[:len(ifs)-1]
			if n.Init != nil {
				ast.Inspect(n.Init, visit)
			}
			ast.Inspect(n.Cond, visit)
			return false
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
					written[v] = true
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if v := fieldOf(lhs, info); v != nil && !defaults(ifs, v, info) {
					written[v] = true
				}
			}
		}
		return true
	}
	ast.Inspect(file, visit)
}

// fieldOf is the field a selector expression names, or nil.
func fieldOf(e ast.Expr, info *types.Info) *types.Var {
	if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			return s.Obj().(*types.Var)
		}
	}
	return nil
}

// defaults reports whether the condition of one of ifs reads field v.
func defaults(ifs []*ast.IfStmt, v *types.Var, info *types.Info) bool {
	for _, s := range ifs {
		found := false
		ast.Inspect(s.Cond, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok && fieldOf(e, info) == v {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

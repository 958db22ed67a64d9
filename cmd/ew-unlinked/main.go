// Command ew-unlinked lists the functions under internal/ that no program
// links. It builds the named main packages with -gcflags=all=-l, so that
// inlining cannot hide a call, and prints each function or method declared
// in a non-test file under ./internal/... whose symbol `go tool nm` finds
// in none of the binaries, one "importpath/file.go:line:<TAB>symbol" line
// each. A generic function counts as linked when any instantiation is. The
// linker keeps a method whose name and signature match an interface method
// some program calls, so the listing errs toward "linked".
//
// It then writes a second listing to deadcode.unset: every field of a
// struct type named *Config under internal/ that no non-test file in the
// module writes (see writeUnset), and prints to standard error how many
// fields those *Config structs declare in all.
//
// Usage, from the module root (as `make deadcode` runs it):
//
//	ew-unlinked ./cmd/... ./examples/... ./bench
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

func main() {
	log.SetFlags(0)
	dir, err := os.MkdirTemp("", "ew-unlinked")
	if err != nil {
		log.Fatal(err)
	}
	goCmd(dir, append([]string{"build", "-gcflags=all=-l", "-o", dir}, os.Args[1:]...)...)
	bins, _ := filepath.Glob(filepath.Join(dir, "*")) // a fixed, well-formed pattern
	nm := goCmd(dir, append([]string{"tool", "nm"}, bins...)...)
	os.RemoveAll(dir)
	linked := map[string]bool{}
	for _, line := range strings.Split(nm, "\n") {
		// "file: address type name"; an instantiation's name may contain
		// spaces, so the name is the rest of the line.
		for _, kind := range []string{" T ", " t "} {
			if i := strings.Index(line, kind); i >= 0 {
				linked[stripTypeArgs(line[i+len(kind):])] = true
				break
			}
		}
	}

	pkgs := goCmd(dir, "list", "-f", `{{.ImportPath}}{{"\t"}}{{.Dir}}{{range .GoFiles}}{{"\t"}}{{.}}{{end}}`, "./internal/...")
	fset := token.NewFileSet()
	for _, line := range strings.Split(strings.TrimSpace(pkgs), "\n") {
		f := strings.Split(line, "\t")
		for _, name := range f[2:] {
			file, err := parser.ParseFile(fset, filepath.Join(f[1], name), nil, parser.SkipObjectResolution)
			if err != nil {
				log.Fatal(err)
			}
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" || linked[f[0]+"."+symbol(fd)] {
					continue
				}
				fmt.Printf("%s/%s:%d:\t%s\n", f[0], name, fset.Position(fd.Pos()).Line, symbol(fd))
			}
		}
	}
	fmt.Fprintf(os.Stderr, "%d *Config fields under internal/\n", writeUnset("deadcode.unset"))
}

// goCmd runs the go command and returns its standard output. On failure
// it removes tmp and exits.
func goCmd(tmp string, args ...string) string {
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		os.RemoveAll(tmp)
		log.Fatalf("go %s: %v", args[0], err)
	}
	return string(out)
}

// symbol is a declaration's name as the linker spells it within its
// package: F, T.M or (*T).M, with any type parameters dropped.
func symbol(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return fd.Name.Name
	}
	t, recv := fd.Recv.List[0].Type, "%s"
	if s, ok := t.(*ast.StarExpr); ok {
		t, recv = s.X, "(*%s)"
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	return fmt.Sprintf(recv, t.(*ast.Ident).Name) + "." + fd.Name.Name
}

// stripTypeArgs drops every bracketed type-argument list from a symbol, so
// that each instantiation of a generic function names its declaration.
func stripTypeArgs(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

package tiledqr

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestPublicSurface lists every exported identifier of the package — funcs,
// methods on exported types, types, consts and vars, from the non-test
// files — and holds the list to testdata/api.golden, so that any growth or
// shrinkage of the public API is a reviewed diff of that file.
func TestPublicSurface(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range pkgs["tiledqr"].Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					names = append(names, "func "+d.Name.Name)
				} else if recv := receiverType(d.Recv.List[0].Type); ast.IsExported(recv) {
					names = append(names, "method "+recv+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							names = append(names, "type "+s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								names = append(names, d.Tok.String()+" "+n.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(names)
	got := strings.Join(names, "\n") + "\n"
	want, err := os.ReadFile("testdata/api.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		// Printed unindented, so the list can be pasted over the file as is.
		fmt.Print(got)
		t.Errorf("the exported identifiers (printed above) differ from testdata/api.golden; if the change is intended, replace the file with that list")
	}
}

// receiverType names a method's receiver type without pointer or type
// parameters: *QR[T] is QR.
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestOneWaitSite: the execution tile has exactly one blocking wait,
// await (DESIGN.md §6), and the service tiles are handlers, which never
// park. A per-cause cycle ledger therefore has one place on the
// execution tile to tag. Nothing is re-sent on a timer, so that wait
// has no deadline. The test fails if any other function in this
// package's non-test code calls Recv, or any calls RecvDeadline.
func TestOneWaitSite(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	callers := map[string]map[string]bool{"Recv": {}, "RecvDeadline": {}}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn := "package scope"
			if fd, ok := d.(*ast.FuncDecl); ok {
				fn = fd.Name.Name
				if fd.Recv != nil {
					fn = recvTypeName(fd.Recv.List[0].Type) + "." + fn
				}
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && callers[sel.Sel.Name] != nil {
						callers[sel.Sel.Name][name+": "+fn] = true
					}
				}
				return true
			})
		}
	}
	for method, want := range map[string][]string{
		"Recv":         {"exec.go: await"},
		"RecvDeadline": nil,
	} {
		var got []string
		for c := range callers[method] {
			got = append(got, c)
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("functions calling %s: %q, want %q", method, got, want)
		}
	}
}

// recvTypeName names a method's receiver type without its pointer star.
func recvTypeName(e ast.Expr) string {
	if s, ok := e.(*ast.StarExpr); ok {
		e = s.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}

// TestOneMachineSite: Run is a fleet of one, so the package builds a
// machine in one place and an engine in one place (runFleet and
// fleetRun.newEngine). The test fails if a non-test file of this
// package holds a second raw.NewMachine( or &engine{.
func TestOneMachineSite(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, site := range []string{"raw.NewMachine(", "&engine{"} {
			count[site] += strings.Count(string(src), site)
		}
	}
	for site, n := range count {
		if n != 1 {
			t.Errorf("%d occurrences of %s in the non-test files, want exactly 1", n, site)
		}
	}
}

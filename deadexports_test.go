package tilevm_test

import (
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// interfaceMethods are method names that standard-library interfaces
// call (error, fmt.Stringer, fmt.Formatter, errors.Unwrap,
// http.Handler, io.WriterTo, sort.Interface): they are used without
// any file of this module naming them.
var interfaceMethods = map[string]bool{
	"Error": true, "String": true, "Unwrap": true, "Format": true,
	"ServeHTTP": true, "WriteTo": true, "Len": true, "Less": true, "Swap": true,
}

// TestDeadExports fails when an exported function or method in
// non-test code under internal/, cmd/ or examples/ has a name that no
// Go file of the module, or of the benchmark module in benchmark/,
// mentions anywhere but in its declaration. Such a function has no
// caller, not even a test.
//
// The match is by name only, so a dead method that shares its name
// with a live one elsewhere (a second Hash beside a used one, say)
// slips through.
func TestDeadExports(t *testing.T) {
	uses := map[string]int{} // identifier → occurrences in all Go files
	var decls []string       // "file: Name" of each candidate
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// benchmark/out holds the benchmark's build cache.
			if path != "." && strings.HasPrefix(d.Name(), ".") || path == filepath.Join("benchmark", "out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		countIdents(src, uses)
		top, _, _ := strings.Cut(filepath.ToSlash(path), "/")
		if strings.HasSuffix(path, "_test.go") || top != "internal" && top != "cmd" && top != "examples" {
			return nil
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if ok && fd.Name.IsExported() && (fd.Recv == nil || !interfaceMethods[fd.Name.Name]) {
				decls = append(decls, path+": "+fd.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for _, key := range decls {
		if name := key[strings.LastIndex(key, " ")+1:]; uses[name] == 1 {
			dead = append(dead, key)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("exported functions nothing calls:\n  %s", strings.Join(dead, "\n  "))
	}
}

// countIdents adds each identifier in a Go source file to uses.
func countIdents(src []byte, uses map[string]int) {
	fset := token.NewFileSet()
	var s scanner.Scanner
	s.Init(fset.AddFile("", -1, len(src)), src, nil, 0)
	for {
		_, tok, lit := s.Scan()
		if tok == token.EOF {
			return
		}
		if tok == token.IDENT {
			uses[lit]++
		}
	}
}

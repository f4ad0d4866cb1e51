// Package wallclock keeps the wall clock out of the packages whose deadlines,
// tickers and timers run on an injected clock.Clock: the server, the client,
// the event log and the in-process network. Its test parses their non-test files and fails on any
// reference to a time function that reads or waits on the wall clock, except
// at the allowlisted measurement sites, which are compared against a start
// time the obs package read off the wall clock.
package wallclock

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// banned are the functions of package time that read or wait on the wall
// clock.
var banned = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"NewTicker": true, "NewTimer": true, "AfterFunc": true, "After": true, "Tick": true,
}

// site is one reference to a banned function: the file (slash-separated,
// relative to the scanned root), the enclosing function ("" at package
// level; methods read Type.Method) and the function referenced.
type site struct {
	File, Func, Call string
	Line             int
}

func (s site) String() string {
	return fmt.Sprintf("%s:%d: time.%s in %s", s.File, s.Line, s.Call, s.Func)
}

// Key is the site without its line, as the allowlist names it.
func (s site) Key() string { return s.File + " " + s.Func + " time." + s.Call }

// scan returns every reference to a banned function in the non-test Go files
// of the directories dirs, relative to root.
func scan(root string, dirs ...string) ([]site, error) {
	var sites []site
	fset := token.NewFileSet()
	for _, dir := range dirs {
		entries, err := os.ReadDir(filepath.Join(root, dir))
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			rel := filepath.ToSlash(filepath.Join(dir, name))
			f, err := parser.ParseFile(fset, filepath.Join(root, rel), nil, 0)
			if err != nil {
				return nil, err
			}
			sites = append(sites, scanFile(fset, rel, f)...)
		}
	}
	sort.Slice(sites, func(i, j int) bool {
		if sites[i].File != sites[j].File {
			return sites[i].File < sites[j].File
		}
		return sites[i].Line < sites[j].Line
	})
	return sites, nil
}

// scanFile finds the banned references in one parsed file, under whatever
// name it imports package time.
func scanFile(fset *token.FileSet, rel string, f *ast.File) []site {
	timeName := ""
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == "time" {
			timeName = "time"
			if imp.Name != nil {
				timeName = imp.Name.Name
			}
		}
	}
	if timeName == "" || timeName == "_" {
		return nil
	}
	var sites []site
	for _, decl := range f.Decls {
		fn := funcName(decl)
		ast.Inspect(decl, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == timeName && banned[sel.Sel.Name] {
				sites = append(sites, site{File: rel, Func: fn, Call: sel.Sel.Name, Line: fset.Position(sel.Pos()).Line})
			}
			return true
		})
	}
	return sites
}

// funcName names a declaration's function: Name, or Type.Name for a method,
// and "" for anything else.
func funcName(decl ast.Decl) string {
	fd, ok := decl.(*ast.FuncDecl)
	if !ok {
		return ""
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

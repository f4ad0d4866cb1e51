package main

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestFlagTableMatchesFlags holds the README's `cosoftd` flag tables to the
// flags main registers, both ways: every registered flag has a row, and
// every row names a registered flag. It is the flag-side twin of metriclint.
func TestFlagTableMatchesFlags(t *testing.T) {
	registered := registeredFlags(t, "main.go")
	documented := documentedFlags(t, filepath.Join("..", "..", "README.md"))
	if len(registered) == 0 || len(documented) == 0 {
		t.Fatalf("found %d registered and %d documented flags", len(registered), len(documented))
	}
	for _, name := range sortedKeys(registered) {
		if !documented[name] {
			t.Errorf("flag -%s is registered but has no row in the README's cosoftd flag tables", name)
		}
	}
	for _, name := range sortedKeys(documented) {
		if !registered[name] {
			t.Errorf("the README's cosoftd flag tables document -%s, which cosoftd does not register", name)
		}
	}
}

// flagDefiners maps the flag package's functions that register a flag on
// the command line to the position of the flag's name among their arguments.
var flagDefiners = map[string]int{
	"Bool": 0, "BoolFunc": 0, "Duration": 0, "Float64": 0, "Func": 0,
	"Int": 0, "Int64": 0, "String": 0, "Uint": 0, "Uint64": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1, "Int64Var": 1,
	"StringVar": 1, "TextVar": 1, "UintVar": 1, "Uint64Var": 1, "Var": 1,
}

// registeredFlags returns the names of the flags the Go file at path
// registers through the flag package's definers.
func registeredFlags(t *testing.T, path string) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		arg, definer := flagDefiners[sel.Sel.Name]
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" || !definer || len(call.Args) <= arg {
			return true
		}
		if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			names[name] = true
		}
		return true
	})
	return names
}

// flagRow matches a flag table row and captures the flag's name.
var flagRow = regexp.MustCompile("^\\| `-([A-Za-z0-9-]+)")

// documentedFlags returns the flags named by the rows of every table in the
// Markdown file at path whose header is "| `cosoftd` flag | ...".
func documentedFlags(t *testing.T, path string) map[string]bool {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	names := make(map[string]bool)
	inTable := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "| `cosoftd` flag |"):
			inTable = true
		case !strings.HasPrefix(line, "|"):
			inTable = false
		case inTable:
			if m := flagRow.FindStringSubmatch(line); m != nil {
				names[m[1]] = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return names
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Package cisteps keeps the CI workflow and the Makefile from running
// nothing. A `go test -run X` whose X names no test passes green while it
// tests nothing, so renaming or deleting a test can silently empty a CI step.
// Its test parses every `go test` command of .github/workflows/verify.yml and
// the Makefile, and requires that each alternative of each -run, -fuzz and
// -bench pattern matches at least one Test, Fuzz or Benchmark function in the
// packages the command names.
package cisteps

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// command is one `go test` invocation: the step or target it belongs to, the
// directory it runs in (relative to the repository root), its -run, -fuzz and
// -bench patterns by flag, and its package arguments.
type command struct {
	Step     string
	Dir      string
	Patterns map[string]string
	Packages []string
}

// commands returns the `go test` commands of a workflow file (steps named by
// their `- name:`) or a Makefile (steps named by their target), read from
// path. In a Makefile `$(GO)` reads as go and `$$` as `$`.
func commands(path string) ([]command, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	makefile := filepath.Base(path) == "Makefile"
	var cmds []command
	step := ""
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if makefile {
			if target, _, ok := strings.Cut(line, ":"); ok && !strings.HasPrefix(line, "\t") && !strings.ContainsAny(target, " \t=$") {
				step = target
			}
			line = strings.NewReplacer("$(GO)", "go", "$$", "$").Replace(line)
		} else if name, ok := strings.CutPrefix(strings.TrimSpace(line), "- name:"); ok {
			step = strings.TrimSpace(name)
		}
		cmds = append(cmds, parseLine(step, line)...)
	}
	return cmds, sc.Err()
}

// parseLine returns the `go test` commands of one shell line, which may
// chain commands with && and change directory with cd.
func parseLine(step, line string) []command {
	line = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "run:"))
	var cmds []command
	dir := "."
	for _, part := range strings.Split(line, "&&") {
		args := fields(part)
		switch {
		case len(args) == 2 && args[0] == "cd":
			dir = filepath.Join(dir, args[1])
		case len(args) >= 2 && args[0] == "go" && args[1] == "test":
			c := command{Step: step, Dir: dir, Patterns: map[string]string{}}
			for i := 2; i < len(args); i++ {
				flag, val, hasVal := strings.Cut(strings.TrimLeft(args[i], "-"), "=")
				switch {
				case !strings.HasPrefix(args[i], "-"):
					c.Packages = append(c.Packages, args[i])
				case flag == "run" || flag == "fuzz" || flag == "bench":
					if !hasVal && i+1 < len(args) {
						i++
						val = args[i]
					}
					c.Patterns[flag] = val
				case !hasVal && valued[flag] && i+1 < len(args):
					i++ // the flag's value, not a package
				}
			}
			if len(c.Packages) == 0 {
				c.Packages = []string{"."}
			}
			cmds = append(cmds, c)
		}
	}
	return cmds
}

// valued are the go test flags used in the repository that take a separate
// value.
var valued = map[string]bool{"count": true, "fuzztime": true, "benchtime": true}

// fields splits a shell command into words, honouring single quotes.
func fields(s string) []string {
	var out []string
	var cur strings.Builder
	inWord, quoted := false, false
	for _, r := range s {
		switch {
		case r == '\'':
			quoted = !quoted
			inWord = true
		case !quoted && (r == ' ' || r == '\t'):
			if inWord {
				out = append(out, cur.String())
				cur.Reset()
			}
			inWord = false
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		out = append(out, cur.String())
	}
	return out
}

// prefixes maps each pattern flag to the function name prefixes it selects.
var prefixes = map[string][]string{
	"run":   {"Test", "Fuzz"},
	"fuzz":  {"Fuzz"},
	"bench": {"Benchmark"},
}

// check returns one problem per package of c that does not exist, and per
// pattern alternative of c that matches no function in c's packages, with
// the repository at root.
func check(root string, c command) ([]string, error) {
	var funcs []string
	var problems []string
	for _, pkg := range c.Packages {
		dir := filepath.Join(root, c.Dir, strings.TrimSuffix(pkg, "..."))
		if _, err := os.Stat(dir); err != nil {
			problems = append(problems, fmt.Sprintf("%s: package %s: %v", c.Step, pkg, err))
			continue
		}
		if len(c.Patterns) == 0 {
			continue
		}
		fs, err := testFuncs(dir, strings.HasSuffix(pkg, "..."))
		if err != nil {
			return nil, err
		}
		funcs = append(funcs, fs...)
	}
	for _, flag := range []string{"run", "fuzz", "bench"} {
		pattern, ok := c.Patterns[flag]
		if !ok || pattern == "^$" {
			continue // no pattern, or one that deliberately selects nothing
		}
		top, _, _ := strings.Cut(pattern, "/") // the top-level name's element
		for _, alt := range alternatives(top) {
			re, err := regexp.Compile(alt)
			if err != nil {
				return nil, fmt.Errorf("%s: -%s %q: %w", c.Step, flag, pattern, err)
			}
			if !anyMatch(re, funcs, prefixes[flag]) {
				problems = append(problems, fmt.Sprintf("%s: -%s alternative %q matches no %s function in %s",
					c.Step, flag, alt, strings.Join(prefixes[flag], "/"), strings.Join(c.Packages, " ")))
			}
		}
	}
	return problems, nil
}

// alternatives splits a regular expression at its top-level | operators.
func alternatives(re string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(re); i++ {
		switch re[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|':
			if depth == 0 {
				out = append(out, re[start:i])
				start = i + 1
			}
		}
	}
	return append(out, re[start:])
}

func anyMatch(re *regexp.Regexp, funcs, prefixes []string) bool {
	for _, f := range funcs {
		for _, p := range prefixes {
			if strings.HasPrefix(f, p) && re.MatchString(f) {
				return true
			}
		}
	}
	return false
}

// testFuncs returns the names of the top-level functions in the _test.go
// files of the package in dir, and with recursive of every package below it
// that `./...` reaches: not testdata, not a directory starting with . or _,
// and not a nested module.
func testFuncs(dir string, recursive bool) ([]string, error) {
	var names []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == dir {
				return nil
			}
			base := d.Name()
			if _, err := os.Stat(filepath.Join(path, "go.mod")); !recursive || err == nil ||
				base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				names = append(names, fn.Name.Name)
			}
		}
		return nil
	})
	return names, err
}

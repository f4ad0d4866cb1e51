package cisteps

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Every `go test` step of the CI workflow and every Makefile target selects
// at least one function with each alternative of its -run, -fuzz and -bench
// patterns, in packages that exist.
func TestEveryStepRunsSomething(t *testing.T) {
	root := filepath.Join("..", "..", "..")
	for _, file := range []string{filepath.Join(".github", "workflows", "verify.yml"), "Makefile"} {
		cmds, err := commands(filepath.Join(root, file))
		if err != nil {
			t.Fatal(err)
		}
		if len(cmds) == 0 {
			t.Fatalf("%s: no go test command found", file)
		}
		for _, c := range cmds {
			problems, err := check(root, c)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range problems {
				t.Errorf("%s: %s", file, p)
			}
		}
	}
}

// The check names the step and the alternative that selects nothing, reads
// patterns in both flag forms and behind a cd, and skips a nested module
// under ./... and the deliberate -run '^$'.
func TestCheckNamesAnEmptyAlternative(t *testing.T) {
	root := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("pkg/a_test.go", "package pkg\n\nfunc TestKept(t *testing.T) {}\n\nfunc BenchmarkKept(b *testing.B) {}\n")
	write("nested/go.mod", "module nested\n")
	write("nested/b_test.go", "package nested\n\nfunc TestNested(t *testing.T) {}\n")
	write("ci.yml", `jobs:
      - name: Kept
        run: go test -run 'TestKept' ./pkg/
      - name: Renamed away
        run: |
          go test -race -count=2 -run='TestKept|TestGone' ./pkg/
      - name: Nested module
        run: go test -run TestNested ./...
      - name: Benchmarks only
        run: cd pkg && go test -run '^$' -bench Kept -benchtime 5x .
`)
	cmds, err := commands(filepath.Join(root, "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, c := range cmds {
		problems, err := check(root, c)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, problems...)
	}
	if len(got) != 2 || !strings.Contains(got[0], `Renamed away: -run alternative "TestGone"`) ||
		!strings.Contains(got[1], `Nested module: -run alternative "TestNested"`) {
		t.Fatalf("problems = %q, want TestGone in \"Renamed away\" and TestNested in \"Nested module\"", got)
	}
}

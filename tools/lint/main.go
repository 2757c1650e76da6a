// Command lint is the repo's custom static checker for library code —
// internal/, serve/ and the root package: it forbids panic calls and
// process-global math/rand use, the two idioms that have bitten this
// codebase before (a panic in a library path takes down a serve
// worker; global rand couples deterministic engines to unrelated
// callers and races under -race).
//
// Usage:
//
//	go run ./tools/lint ./internal/... ./serve/... .
//
// Rules, applied to non-test .go files only:
//
//   - no panic(...) calls. A deliberate panic (e.g. a simulator
//     wrapper converting a can't-happen error for a hot loop) is
//     annotated with a `//alicelint:allow-panic` comment on the line
//     above (or the same line) and skipped.
//   - no calls through the global math/rand (or math/rand/v2) source:
//     rand.Intn, rand.Int63n, rand.Seed, ... Constructing a local
//     generator (rand.New, rand.NewSource) is the sanctioned pattern
//     and is allowed.
//
// The checker is deliberately stdlib-only (go/parser + go/ast): it
// runs in CI and offline builds with an empty module cache.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// allowPanicDirective marks a deliberate panic site.
const allowPanicDirective = "alicelint:allow-panic"

// randConstructors are the math/rand functions that build a local
// generator instead of touching the global source.
var randConstructors = map[string]bool{"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true}

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: lint ./internal/... [more paths]")
		os.Exit(2)
	}
	files, err := collect(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lint:", err)
		os.Exit(2)
	}
	var violations []string
	fset := token.NewFileSet()
	for _, f := range files {
		v, err := lintFile(fset, f, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lint:", err)
			os.Exit(2)
		}
		violations = append(violations, v...)
	}
	for _, v := range violations {
		fmt.Println(v)
	}
	if len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "lint: %d violation(s)\n", len(violations))
		os.Exit(1)
	}
}

// collect expands the argument patterns into the library .go files to
// check. A trailing "/..." walks the tree; a directory takes its
// direct files; a .go file is taken as-is. Test files and testdata
// directories are always skipped — the rules govern library code.
func collect(patterns []string) ([]string, error) {
	var out []string
	seen := make(map[string]bool)
	add := func(p string) {
		if !seen[p] && strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		switch {
		case strings.HasSuffix(pat, "/..."):
			root := strings.TrimSuffix(pat, "/...")
			err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if d.IsDir() && d.Name() == "testdata" {
					return filepath.SkipDir
				}
				if !d.IsDir() {
					add(path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		default:
			info, err := os.Stat(pat)
			if err != nil {
				return nil, err
			}
			if !info.IsDir() {
				add(pat)
				continue
			}
			entries, err := os.ReadDir(pat)
			if err != nil {
				return nil, err
			}
			for _, e := range entries {
				if !e.IsDir() {
					add(filepath.Join(pat, e.Name()))
				}
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// lintFile checks one file (src may carry source bytes for tests) and
// returns its violations as "path:line: message" strings.
func lintFile(fset *token.FileSet, path string, src any) ([]string, error) {
	f, err := parser.ParseFile(fset, path, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}

	// Lines carrying the allow-panic directive; a panic on the same or
	// the following line is sanctioned.
	allowed := make(map[int]bool)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, allowPanicDirective) {
				allowed[fset.Position(c.End()).Line] = true
			}
		}
	}

	// Import names bound to the global-source rand packages.
	randNames := make(map[string]bool)
	for _, imp := range f.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if p != "math/rand" && p != "math/rand/v2" {
			continue
		}
		name := "rand"
		if imp.Name != nil {
			name = imp.Name.Name
		}
		randNames[name] = true
	}

	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		pos := fset.Position(call.Pos())
		switch fn := call.Fun.(type) {
		case *ast.Ident:
			if fn.Name == "panic" && !allowed[pos.Line] && !allowed[pos.Line-1] {
				out = append(out, fmt.Sprintf("%s:%d: panic in library code (annotate deliberate sites with //%s)",
					path, pos.Line, allowPanicDirective))
			}
		case *ast.SelectorExpr:
			id, ok := fn.X.(*ast.Ident)
			if !ok || !randNames[id.Name] || randConstructors[fn.Sel.Name] {
				return true
			}
			out = append(out, fmt.Sprintf("%s:%d: global math/rand call rand.%s (use a locally seeded *rand.Rand)",
				path, pos.Line, fn.Sel.Name))
		}
		return true
	})
	return out, nil
}

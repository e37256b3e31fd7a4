// The linked-code gate: every non-test function of the module must be linked
// into at least one of the repository's programs, or be named in
// testdata/linked_allow.txt with a reason. The method builds each program
// without inlining (-gcflags=all=-l, so a called function keeps its own
// symbol), lists its text symbols with `go tool nm`, and compares them with a
// go/ast walk of every function declaration in the packages `go list` builds.
// The linker keeps the methods an interface conversion might reach, so what
// the gate reports is a lower bound of what no program calls.
//
// Both tests build programs and only run with GALO_LINK_GATE=1:
//
//	GALO_LINK_GATE=1 go test -run 'TestEveryFunctionIsLinked|TestLinkListerFindsPlanted' .
package galo_test

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// linkProgram is one program of a module: the directory `go` runs in and the
// package pattern it builds there.
type linkProgram struct{ dir, pkg string }

// linkPrograms are the repository's programs. bench/ is a nested module: its
// own functions are not walked, but what it links keeps the module's alive.
var linkPrograms = []linkProgram{
	{".", "./cmd/galo"},
	{".", "./cmd/galo-experiments"},
	{".", "./examples/cross_workload"},
	{".", "./examples/guideline_tuning"},
	{".", "./examples/quickstart"},
	{".", "./examples/tpcds_reopt"},
	{"bench", "."},
}

// declaredFunc is one function declaration of a non-test file, keyed the way
// the linker names its symbol with type parameters dropped:
// "galo/internal/qgm.(*Plan).Validate", "galo/internal/qgm.Format".
type declaredFunc struct {
	key   string
	pos   string // file:line, relative to the module root
	lines int
}

func skipUnlessLinkGate(t *testing.T) {
	t.Helper()
	if os.Getenv("GALO_LINK_GATE") != "1" {
		t.Skip("set GALO_LINK_GATE=1 to build the programs and check that every function is linked")
	}
}

func TestEveryFunctionIsLinked(t *testing.T) {
	skipUnlessLinkGate(t)
	unlinked, err := unlinkedFuncs(".", linkPrograms, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readLinkAllowlist("testdata/linked_allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	used := make([]bool, len(allow))
	var offenders []declaredFunc
	allowedLines := 0
	for _, f := range unlinked {
		hit := false
		for i, a := range allow {
			if a.matches(f.key) {
				used[i], hit = true, true
			}
		}
		if hit {
			allowedLines += f.lines
			continue
		}
		offenders = append(offenders, f)
	}
	t.Logf("%d functions are linked by no program; %d of them (%d lines) are allowlisted by %d entries",
		len(unlinked), len(unlinked)-len(offenders), allowedLines, len(allow))
	for _, f := range offenders {
		t.Errorf("%s: %s (%d lines) is linked by no program: delete it, or allowlist it in testdata/linked_allow.txt with a reason", f.pos, f.key, f.lines)
	}
	for i, a := range allow {
		if !used[i] {
			t.Errorf("testdata/linked_allow.txt: %q allows nothing that is unlinked; remove the entry", a.entry)
		}
	}
}

// TestLinkListerFindsPlanted runs the lister over a fixture module whose
// unlinked functions are known: a plain function and a method of a generic
// type instantiated with a struct (its symbol's shape name holds spaces),
// beside a called function and a value-receiver method called only through an
// interface.
func TestLinkListerFindsPlanted(t *testing.T) {
	skipUnlessLinkGate(t)
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module fixture\n\ngo 1.24\n",
		"main.go": `package main

import "fixture/lib"

func main() {
	lib.Called()
	var s lib.Shower = lib.Val{}
	s.Show()
	var b lib.Box[struct{ A, B int }]
	b.Put(struct{ A, B int }{1, 2})
}
`,
		"lib/lib.go": `package lib

func Called() { println("called") }

func Uncalled() { println("uncalled") }

type Shower interface{ Show() }

type Val struct{}

func (Val) Show() { println("val") }

type Box[T any] struct{ v T }

func (b *Box[T]) Put(v T) { b.v = v }

func (b *Box[T]) Unused() T { return b.v }
`,
	}
	for name, text := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	unlinked, err := unlinkedFuncs(root, []linkProgram{{".", "."}}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range unlinked {
		got = append(got, f.key)
	}
	want := []string{"fixture/lib.(*Box).Unused", "fixture/lib.Uncalled"}
	if !slices.Equal(got, want) {
		t.Fatalf("unlinked = %q, want %q", got, want)
	}
}

// TestLinkAllowMatches pins the allowlist's patterns: "*" matches any run of
// characters, but the "*" of a pointer receiver matches only itself.
func TestLinkAllowMatches(t *testing.T) {
	for _, tc := range []struct {
		entry, key string
		want       bool
	}{
		{"galo.*", "galo.(*System).Learn", true},
		{"galo.*", "galo/internal/qgm.Format", false},
		{"galo/internal/qgm.(*Plan).Validate", "galo/internal/qgm.(*Plan).Validate", true},
		{"galo/internal/qgm.(*Plan).Validate", "galo/internal/qgm.(*SubPlan).Validate", false},
		{"galo/internal/qgm.*.TableInstances", "galo/internal/qgm.(*Node).TableInstances", true},
		{"galo/internal/wal.(*FaultFS).*", "galo/internal/wal.(*FaultFS).Create", true},
		{"galo/internal/wal.(*FaultFS).*", "galo/internal/wal.NewFaultFS", false},
		{"galo/internal/executor.(*Executor).Run*", "galo/internal/executor.(*Executor).RunBounded", true},
		{"galo/internal/executor.(*Executor).Run*", "galo/internal/executor.(*Executor).Open", false},
		{"galo/internal/workload/scenario.Fingerprint*", "galo/internal/workload/scenario.Fingerprint", true},
	} {
		if got := (linkAllow{entry: tc.entry}).matches(tc.key); got != tc.want {
			t.Errorf("%q matches %q = %v, want %v", tc.entry, tc.key, got, tc.want)
		}
	}
}

// unlinkedFuncs builds every program of the module at root into buildDir and
// returns the module's non-test functions that none of them links, sorted by
// key.
func unlinkedFuncs(root string, programs []linkProgram, buildDir string) ([]declaredFunc, error) {
	linked := map[string]bool{}
	for i, p := range programs {
		dir := filepath.Join(root, p.dir)
		mainPath, err := goOutput(dir, "list", "-f", "{{.ImportPath}}", p.pkg)
		if err != nil {
			return nil, err
		}
		bin := filepath.Join(buildDir, fmt.Sprintf("prog%d", i))
		if _, err := goOutput(dir, "build", "-gcflags=all=-l", "-o", bin, p.pkg); err != nil {
			return nil, err
		}
		nm, err := goOutput(dir, "tool", "nm", bin)
		if err != nil {
			return nil, err
		}
		for _, sym := range textSymbols(nm) {
			if rest, ok := strings.CutPrefix(sym, "main."); ok {
				sym = strings.TrimSpace(mainPath) + "." + rest
			}
			linked[sym] = true
		}
	}
	decls, err := declaredFuncs(root)
	if err != nil {
		return nil, err
	}
	var unlinked []declaredFunc
	for _, f := range decls {
		if !linked[f.key] {
			unlinked = append(unlinked, f)
		}
	}
	slices.SortFunc(unlinked, func(a, b declaredFunc) int { return strings.Compare(a.key, b.key) })
	return unlinked, nil
}

// textSymbols returns the code symbols of `go tool nm` output, each with its
// bracketed type arguments removed, so that
// "rdf.(*table[go.shape.struct { … }]).get" reads "rdf.(*table).get". A
// symbol is everything after the type column: generic shape names hold spaces.
func textSymbols(nm string) []string {
	var syms []string
	sc := bufio.NewScanner(strings.NewReader(nm))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		// "<address> <type> <symbol>", the address blank for an undefined one.
		line := strings.TrimLeft(sc.Text(), " ")
		_, rest, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		kind, sym, ok := strings.Cut(rest, " ")
		if !ok || (kind != "T" && kind != "t") {
			continue
		}
		syms = append(syms, strings.TrimSuffix(stripBrackets(sym), "-fm"))
	}
	return syms
}

// stripBrackets drops every outermost [...] group of s.
func stripBrackets(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// declaredFuncs walks the non-test files of every package `go list ./...`
// finds under root (build constraints applied) and returns their function
// declarations; init functions have no name to call and are left out.
func declaredFuncs(root string) ([]declaredFunc, error) {
	out, err := goOutput(root, "list", "-f", "{{.ImportPath}}\t{{.Dir}}\t{{join .GoFiles \"\\t\"}}", "./...")
	if err != nil {
		return nil, err
	}
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var decls []declaredFunc
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		fields := strings.Split(line, "\t")
		importPath, dir := fields[0], fields[1]
		for _, name := range fields[2:] {
			path := filepath.Join(dir, name)
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			rel, _ := filepath.Rel(absRoot, path)
			for _, d := range file.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Body == nil || fn.Name.Name == "init" || fn.Name.Name == "_" {
					continue
				}
				start, end := fset.Position(fn.Pos()), fset.Position(fn.End())
				decls = append(decls, declaredFunc{
					key:   importPath + "." + receiverPrefix(fn) + fn.Name.Name,
					pos:   fmt.Sprintf("%s:%d", rel, start.Line),
					lines: end.Line - start.Line + 1,
				})
			}
		}
	}
	return decls, nil
}

// receiverPrefix is the linker's receiver part of a method symbol, type
// parameters dropped: "(*Plan)." or "Value.", and "" for a function.
func receiverPrefix(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	typ, star := fn.Recv.List[0].Type, false
	if s, ok := typ.(*ast.StarExpr); ok {
		typ, star = s.X, true
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	name := typ.(*ast.Ident).Name
	if star {
		return "(*" + name + ")."
	}
	return name + "."
}

// linkAllow is one allowlist entry: a symbol, or a pattern in which "*"
// matches any run of characters ("galo.*", a whole package;
// "galo/internal/wal.(*faultFile).*", a type's methods). The "*" of a pointer
// receiver, "(*", matches only itself: "galo/internal/qgm.(*Plan).Validate".
type linkAllow struct{ entry, reason string }

func (a linkAllow) matches(key string) bool {
	const ptr = "(\x00"
	parts := strings.Split(strings.ReplaceAll(a.entry, "(*", ptr), "*")
	key = strings.ReplaceAll(key, "(*", ptr)
	if len(parts) == 1 {
		return key == parts[0]
	}
	first, last := parts[0], parts[len(parts)-1]
	if len(key) < len(first)+len(last) || !strings.HasPrefix(key, first) || !strings.HasSuffix(key, last) {
		return false
	}
	key = key[len(first) : len(key)-len(last)]
	for _, part := range parts[1 : len(parts)-1] {
		i := strings.Index(key, part)
		if i < 0 {
			return false
		}
		key = key[i+len(part):]
	}
	return true
}

// readLinkAllowlist reads "<entry> <reason>" lines; blank lines and lines
// starting with # are skipped, and an entry without a reason is an error.
func readLinkAllowlist(path string) ([]linkAllow, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var allow []linkAllow
	for n, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		entry, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %q has no reason", path, n+1, entry)
		}
		allow = append(allow, linkAllow{entry, strings.TrimSpace(reason)})
	}
	return allow, nil
}

// goOutput runs the go command in dir and returns its standard output.
func goOutput(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go %s (in %s): %v\n%s", strings.Join(args, " "), dir, err, stderr.String())
	}
	return string(out), nil
}

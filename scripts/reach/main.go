// Command reach is the reachability gate check.sh runs: every function
// and method declared in non-test code under internal/ must be linked
// into at least one binary the module builds, or be listed in
// scripts/reach/allow.txt with a reason. Code no binary reaches is code
// nobody runs outside the tests, so it either goes or says why it stays.
//
// How: build every main package with inlining off (-gcflags=all=-l, so a
// small function does not vanish into its callers), read the linked
// symbols with go tool nm, and normalise them — strip bracketed type
// arguments and the .funcN / .deferwrapN / .gowrapN / -fm suffixes the
// compiler gives closures, wrappers and method values — so each one names
// the declaration it came from. Then parse every non-test file of every
// internal package and print each declaration whose symbol is missing.
//
// allow.txt holds one symbol per line followed by its reason; '#' starts
// a comment. An entry whose symbol is linked or no longer declared is
// printed too, so the list cannot go stale.
//
// Usage: go run ./scripts/reach   (from the module root; prints nothing
// and exits 0 when every declaration is reached or allowed)
package main

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
	"regexp"
	"sort"
	"strings"
)

const allowFile = "scripts/reach/allow.txt"

func main() {
	out, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(2)
	}
	if len(out) > 0 {
		for _, line := range out {
			fmt.Println(line)
		}
		os.Exit(1)
	}
}

func run() ([]string, error) {
	linked, err := linkedSymbols()
	if err != nil {
		return nil, err
	}
	declared, err := declaredFuncs()
	if err != nil {
		return nil, err
	}
	allow, err := readAllow(allowFile)
	if err != nil {
		return nil, err
	}
	var out []string
	for sym, pos := range declared {
		if linked[sym] {
			if _, ok := allow[sym]; ok {
				out = append(out, fmt.Sprintf("%s: allowed but linked: %s", allowFile, sym))
			}
			continue
		}
		if _, ok := allow[sym]; !ok {
			out = append(out, fmt.Sprintf("%s: unreached: %s", pos, sym))
		}
	}
	for sym := range allow {
		if _, ok := declared[sym]; !ok {
			out = append(out, fmt.Sprintf("%s: allowed but not declared: %s", allowFile, sym))
		}
	}
	sort.Strings(out)
	return out, nil
}

// linkedSymbols builds every main package of the module into a scratch
// directory and returns the normalised text symbols of all of them.
func linkedSymbols() (map[string]bool, error) {
	mains, err := goList(`{{if eq .Name "main"}}{{.ImportPath}}{{end}}`)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "reach-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	args := append([]string{"build", "-gcflags=all=-l", "-o", dir + string(filepath.Separator)}, mains...)
	if msg, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build: %v\n%s", err, msg)
	}
	bins, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	linked := map[string]bool{}
	for _, b := range bins {
		nm, err := exec.Command("go", "tool", "nm", filepath.Join(dir, b.Name())).Output()
		if err != nil {
			return nil, fmt.Errorf("go tool nm %s: %w", b.Name(), err)
		}
		sc := bufio.NewScanner(bytes.NewReader(nm))
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			// A generic shape name may hold spaces (go.shape.struct { X int }),
			// so the symbol is the rest of the line, not the last field.
			if m := nmText.FindStringSubmatch(sc.Text()); m != nil {
				linked[normalise(m[1])] = true
			}
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return linked, nil
}

// nmText matches a text (code) symbol line of go tool nm: address, T or
// t, then the name.
var nmText = regexp.MustCompile(`^\s*[0-9a-f]+ [Tt] (.+)$`)

// suffix matches the compiler-generated tails that hang off the symbol
// of the declaration they belong to: closures (.func1, and .func1.2 for a
// closure inside one), defer/go wrappers and method values (-fm).
var suffix = regexp.MustCompile(`(\.(func|deferwrap|gowrap)\d+(\.\d+)*)+$|-fm$`)

// normalise maps a linked symbol to the declaration it came from:
// pkg.F[go.shape.int].func1 → pkg.F, pkg.(*T[...]).M-fm → pkg.(*T).M.
func normalise(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return suffix.ReplaceAllString(b.String(), "")
}

// declaredFuncs parses the non-test files of every package under
// internal/ (as go list selects them for this platform) and returns each
// function and method as the symbol the linker would give it, mapped to
// its source position.
func declaredFuncs() (map[string]string, error) {
	lines, err := goList(`{{.ImportPath}}|{{.Dir}}|{{join .GoFiles ","}}`, "./internal/...")
	if err != nil {
		return nil, err
	}
	cwd, _ := os.Getwd()
	fset := token.NewFileSet()
	out := map[string]string{}
	for _, line := range lines {
		parts := strings.SplitN(line, "|", 3)
		if len(parts) != 3 || parts[2] == "" {
			continue
		}
		for _, name := range strings.Split(parts[2], ",") {
			path := filepath.Join(parts[1], name)
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "_" || (fd.Recv == nil && fd.Name.Name == "init") {
					continue
				}
				pos := fset.Position(fd.Pos())
				if rel, err := filepath.Rel(cwd, pos.Filename); err == nil {
					pos.Filename = rel
				}
				out[parts[0]+"."+funcName(fd)] = pos.String()
			}
		}
	}
	return out, nil
}

// funcName is F, T.M or (*T).M, with any type parameters dropped.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	star := false
	if s, ok := typ.(*ast.StarExpr); ok {
		star, typ = true, s.X
	}
	switch t := typ.(type) {
	case *ast.IndexExpr:
		typ = t.X
	case *ast.IndexListExpr:
		typ = t.X
	}
	recv := typ.(*ast.Ident).Name
	if star {
		return "(*" + recv + ")." + fd.Name.Name
	}
	return recv + "." + fd.Name.Name
}

func goList(format string, pkgs ...string) ([]string, error) {
	if len(pkgs) == 0 {
		pkgs = []string{"./..."}
	}
	out, err := exec.Command("go", append([]string{"list", "-f", format}, pkgs...)...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	var lines []string
	for _, l := range strings.Split(string(out), "\n") {
		if l = strings.TrimSpace(l); l != "" {
			lines = append(lines, l)
		}
	}
	return lines, nil
}

// readAllow reads symbol → reason; a line without a reason is an error.
func readAllow(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	allow := map[string]string{}
	for i, l := range strings.Split(string(data), "\n") {
		if j := strings.IndexByte(l, '#'); j >= 0 {
			l = l[:j]
		}
		f := strings.Fields(l)
		if len(f) == 0 {
			continue
		}
		if len(f) < 2 {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, i+1, f[0])
		}
		allow[f[0]] = strings.Join(f[1:], " ")
	}
	return allow, nil
}

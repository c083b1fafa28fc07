// Command reachcheck fails when the non-test functions that no binary
// links differ from a committed allowlist, so code that nothing runs
// cannot accumulate unnoticed.
//
// It builds every main package of the repository (cmd/, examples/ and
// the bench module) with inlining off, so that a function whose every
// call was inlined still shows, and reads each binary's symbols with
// `go tool nm`. Every function declared in a non-test file is mapped to
// its linker name (pkg.F, pkg.T.M, pkg.(*T).M, pkg.F[...] for generics);
// names a godoc Example references are skipped, and the rest are compared
// with allowlist.txt, one `<file> <symbol> # reason` per line. Any
// difference fails: an unlisted unlinked function, or a listed one that
// is now linked or gone. Run it from the repository root:
//
//	go run ./cmd/reachcheck
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// modules are the repository's Go modules, relative to its root.
var modules = []string{".", "bench"}

const allowlist = "cmd/reachcheck/allowlist.txt"

// pkg is the part of `go list -json` output the gate reads.
type pkg struct {
	Dir, ImportPath, Name, Export      string
	GoFiles, TestGoFiles, XTestGoFiles []string
}

// decl is one function declaration: the file declaring it, its symbol as
// the allowlist spells it, and its linker name.
type decl struct{ File, Sym, Link string }

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "reachcheck:", err)
		os.Exit(1)
	}
}

func run() error {
	tmp, err := os.MkdirTemp("", "reachcheck")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	var decls []decl
	linked, refs := map[string]bool{}, map[string]bool{}
	for _, mod := range modules {
		ds, l, r, err := scan(root, mod, tmp, "./...")
		if err != nil {
			return err
		}
		decls = append(decls, ds...)
		for s := range l {
			linked[s] = true
		}
		for s := range r {
			refs[s] = true
		}
	}
	unlinked := map[string]bool{}
	for _, d := range decls {
		if !linked[d.Link] && !refs[d.Link] {
			unlinked[d.File+" "+d.Sym] = true
		}
	}
	allowed, err := readAllowlist(allowlist)
	if err != nil {
		return err
	}
	var diffs []string
	for k := range unlinked {
		if !allowed[k] {
			diffs = append(diffs, "unlinked and not allowlisted: "+k)
		}
	}
	for k := range allowed {
		if !unlinked[k] {
			diffs = append(diffs, "allowlisted but linked or gone: "+k)
		}
	}
	sort.Strings(diffs)
	for _, d := range diffs {
		fmt.Println(d)
	}
	if len(diffs) > 0 {
		return fmt.Errorf("%d difference(s) from %s", len(diffs), allowlist)
	}
	fmt.Printf("reachcheck: %d declarations, %d unlinked, all allowlisted\n", len(decls), len(unlinked))
	return nil
}

// scan lists the packages the patterns name in module directory mod and
// returns their function declarations (files relative to root), the
// function symbols of the binaries their main packages build (tmp holds
// each binary while it is read), and the names their godoc Examples
// reference.
func scan(root, mod, tmp string, patterns ...string) (decls []decl, linked, refs map[string]bool, err error) {
	pkgs, err := list(mod, patterns...)
	if err != nil {
		return nil, nil, nil, err
	}
	linked, refs = map[string]bool{}, map[string]bool{}
	for _, p := range pkgs {
		if p.Name == "main" {
			syms, err := symbols(mod, p.ImportPath, filepath.Join(tmp, "bin"))
			if err != nil {
				return nil, nil, nil, err
			}
			for s := range syms {
				linked[s] = true
			}
		}
		ds, err := declarations(root, p)
		if err != nil {
			return nil, nil, nil, err
		}
		decls = append(decls, ds...)
		r, err := exampleRefs(mod, p)
		if err != nil {
			return nil, nil, nil, err
		}
		for s := range r {
			refs[s] = true
		}
	}
	return decls, linked, refs, nil
}

// list runs `go list -json args` in dir and decodes every package it
// prints.
func list(dir string, args ...string) ([]pkg, error) {
	out, err := goCmd(dir, append([]string{"list", "-json"}, args...)...)
	if err != nil {
		return nil, err
	}
	var pkgs []pkg
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p pkg
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

func goCmd(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return out, nil
}

// symbols builds the main package importPath with inlining off and
// returns its function symbols, main.X renamed to importPath.X and type
// arguments elided to [...].
func symbols(dir, importPath, bin string) (map[string]bool, error) {
	if _, err := goCmd(dir, "build", "-gcflags=all=-l", "-o", bin, importPath); err != nil {
		return nil, err
	}
	out, err := goCmd(dir, "tool", "nm", bin)
	if err != nil {
		return nil, err
	}
	syms := map[string]bool{}
	for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
		f := strings.Fields(sc.Text())
		if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
			continue
		}
		name := elideTypeArgs(strings.Join(f[2:], " "))
		if rest, ok := strings.CutPrefix(name, "main."); ok {
			name = importPath + "." + rest
		}
		syms[name] = true
	}
	return syms, nil
}

// elideTypeArgs replaces every bracketed type-argument list with [...].
func elideTypeArgs(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			if depth == 0 {
				b.WriteString("[...]")
			}
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// declarations maps every function declared in p's non-test files to its
// linker name. init functions are skipped: the linker numbers them.
func declarations(root string, p pkg) ([]decl, error) {
	var ds []decl
	fset := token.NewFileSet()
	for _, name := range p.GoFiles {
		path := filepath.Join(p.Dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return nil, err
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
				continue
			}
			link := p.ImportPath + "." + declName(fd)
			ds = append(ds, decl{filepath.ToSlash(rel), p.Name + strings.TrimPrefix(link, p.ImportPath), link})
		}
	}
	return ds, nil
}

// declName is fd's linker name without its package path.
func declName(fd *ast.FuncDecl) string {
	name := fd.Name.Name
	if fd.Type.TypeParams != nil {
		name += "[...]"
	}
	if fd.Recv == nil {
		return name
	}
	t, star := fd.Recv.List[0].Type, false
	if s, ok := t.(*ast.StarExpr); ok {
		t, star = s.X, true
	}
	generic := ""
	switch x := t.(type) {
	case *ast.IndexExpr:
		t, generic = x.X, "[...]"
	case *ast.IndexListExpr:
		t, generic = x.X, "[...]"
	}
	recv := t.(*ast.Ident).Name + generic
	if star {
		recv = "(*" + recv + ")"
	}
	return recv + "." + name
}

// exampleRefs type-checks p's test files that declare godoc Examples and
// returns the linker names of the functions and methods those Examples
// reference.
func exampleRefs(dir string, p pkg) (map[string]bool, error) {
	refs := map[string]bool{}
	var exports map[string]string
	for _, set := range []struct {
		path  string
		files []string
	}{
		{p.ImportPath, append(append([]string{}, p.GoFiles...), p.TestGoFiles...)},
		{p.ImportPath + "_test", p.XTestGoFiles},
	} {
		fset := token.NewFileSet()
		var files []*ast.File
		var examples []*ast.FuncDecl
		for _, name := range set.files {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Example") {
					examples = append(examples, fd)
				}
			}
		}
		if len(examples) == 0 {
			continue
		}
		if exports == nil {
			deps, err := list(dir, "-export", "-deps", "-test", p.ImportPath)
			if err != nil {
				return nil, err
			}
			exports = map[string]string{}
			for _, d := range deps {
				exports[d.ImportPath] = d.Export
			}
		}
		lookup := func(path string) (io.ReadCloser, error) {
			// The test variant of a dependency sees p's test files.
			if e := exports[path+" ["+p.ImportPath+".test]"]; e != "" {
				return os.Open(e)
			}
			return os.Open(exports[path])
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: importer.ForCompiler(fset, "gc", lookup)}
		if _, err := conf.Check(set.path, fset, files, info); err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", set.path, err)
		}
		for _, ex := range examples {
			ast.Inspect(ex.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if fn, ok := info.Uses[id].(*types.Func); ok {
						refs[funcLink(fn)] = true
					}
				}
				return true
			})
		}
	}
	return refs, nil
}

// funcLink is fn's linker name, or "" for an interface method.
func funcLink(fn *types.Func) string {
	fn = fn.Origin()
	if fn.Pkg() == nil {
		return ""
	}
	sig := fn.Type().(*types.Signature)
	name := fn.Name()
	if sig.TypeParams().Len() > 0 {
		name += "[...]"
	}
	if r := sig.Recv(); r != nil {
		t, star := r.Type(), false
		if pt, ok := t.(*types.Pointer); ok {
			t, star = pt.Elem(), true
		}
		named, ok := t.(*types.Named)
		if !ok || types.IsInterface(named) {
			return ""
		}
		recv := named.Obj().Name()
		if named.TypeParams().Len() > 0 {
			recv += "[...]"
		}
		if star {
			recv = "(*" + recv + ")"
		}
		name = recv + "." + name
	}
	return fn.Pkg().Path() + "." + name
}

// readAllowlist returns the `<file> <symbol>` keys of the allowlist; a
// line's text from # on is its reason.
func readAllowlist(path string) (map[string]bool, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	keys := map[string]bool{}
	for i, line := range strings.Split(string(b), "\n") {
		entry, _, _ := strings.Cut(line, "#")
		f := strings.Fields(entry)
		switch {
		case len(f) == 0:
		case len(f) != 2:
			return nil, fmt.Errorf("%s:%d: want `<file> <symbol> # reason`", path, i+1)
		default:
			keys[f[0]+" "+f[1]] = true
		}
	}
	return keys, nil
}

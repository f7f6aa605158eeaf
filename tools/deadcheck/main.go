// Command deadcheck enforces the rule that the library keeps only what the
// system runs: every module-level declaration outside bench/, examples/
// and internal/faultnet must be reached from a binary. It type-checks
// every package of the module, test files included, against the export
// data `go list -e -deps -test -export -json ./...` leaves in the build
// cache, and marks declarations reachable, transitively, from the main
// functions of cmd/* and tools/* and from every package's init functions
// and var initializers.
//
//   - A declaration whose only users are dead is itself dead.
//   - A method of a live type is live if live code calls it, if live code
//     calls any method of that name through an interface, or if the
//     standard library calls it through error (with errors.Is' Is and
//     Unwrap), fmt.Stringer, json.Marshaler, json.Unmarshaler or
//     heap.Interface.
//   - A const block that uses iota is one declaration: using one name
//     uses the numbering.
//
// Each unreached declaration is printed with its direct users: bench,
// example, test, or dead production code ("via"). One that neither bench
// nor example code reaches fails the check (exit 1) unless the allowlist
// names it or an allowlisted declaration reaches it. An allowlist key that
// names no declaration fails the check too, so an entry cannot outlive its
// code. Run it from the module root: go run ./tools/deadcheck
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// allow names the declarations that may stay although only tests reach
// them, each with the reason it stays.
var allow = map[string]string{
	"dgs/internal/core.BiddingValue": "the paper's bidding hook (DESIGN §2), a station-priced Φ for the system to plug in",
}

// decl is a module-level declaration, or the init code of a package's
// files of one class: their init functions and var initializers.
type decl struct {
	key   string // import path + "." + [receiver type + "."] name
	pos   token.Position
	class string   // "prod", "test" (and faultnet), "bench" or "example"
	root  bool     // a binary's main, or production init code
	uses  []string // keys of the declarations it names
	iface []string // method names it calls through an interface
	recv  string   // a method's receiver type key
	name  string   // a method's name
	std   bool     // a method the standard library calls through an interface
}

type graph struct {
	mod     string
	decls   map[string]*decl   // an iota block's names share one decl
	methods map[string][]*decl // by receiver type key
	byName  map[string][]*decl // methods by name
	all     []*decl
}

func main() {
	code, err := run(".", allow, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcheck:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// run checks the module rooted at dir against the allowlist allow (keyed
// like decl.key), reports to out and returns the exit code.
func run(dir string, allow map[string]string, out io.Writer) (int, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return 0, err
	}
	g, err := load(dir)
	if err != nil {
		return 0, err
	}
	// Reach from the binaries, then from them plus each kind of root
	// whose declarations print without failing.
	roots := map[string][]*decl{}
	for _, d := range g.all {
		k := d.class
		if _, ok := allow[d.key]; ok {
			k = "allowed"
		} else if d.root {
			k = "binary"
		}
		roots[k] = append(roots[k], d)
	}
	live := g.reach(roots["binary"])
	kinds := []string{"bench", "example", "allowed"}
	reached := map[string]map[*decl]bool{}
	for _, k := range kinds {
		reached[k] = g.reach(append(roots[k], roots["binary"]...))
	}
	sort.SliceStable(g.all, func(i, j int) bool {
		a, b := g.all[i].pos, g.all[j].pos
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Line < b.Line
	})
	fails, listed := 0, 0
	for _, d := range g.all {
		if d.class != "prod" || live[d] {
			continue
		}
		listed++
		verdict := "DEAD"
		for _, k := range kinds {
			if verdict == "DEAD" && reached[k][d] {
				verdict = k
			}
		}
		if reason, ok := allow[d.key]; ok {
			verdict = "allowed (" + reason + ")"
		}
		if verdict == "DEAD" {
			fails++
		}
		file, _ := filepath.Rel(dir, d.pos.Filename) // go list names files under dir
		fmt.Fprintf(out, "%s:%d: %s: %s; %s\n", file, d.pos.Line, g.short(d.key), verdict, g.usersOf(d))
	}
	for _, k := range slices.Sorted(maps.Keys(allow)) {
		if g.decls[k] == nil {
			fmt.Fprintf(out, "allowlist: %s: STALE; names no declaration\n", k)
			fails++
		}
	}
	if fails > 0 {
		fmt.Fprintf(out, "deadcheck: %d failure(s): delete each DEAD declaration (no binary, bench or example reaches it) or move it into the _test.go files that use it, and drop each STALE allowlist key\n", fails)
		return 1, nil
	}
	fmt.Fprintf(out, "deadcheck: every declaration outside bench/ and examples/ is reached by a binary, bench or example (%d reached only by those or allowlisted)\n", listed)
	return 0, nil
}

// load type-checks the module's packages and builds the use graph. Each
// package is checked once with its in-package tests ("p [p.test]" when it
// has them) and once for its external tests ("p_test [p.test]"); copies
// recompiled for another package's test are skipped. Other packages come
// from export data, so declarations are joined by key.
func load(dir string) (*graph, error) {
	cmd := exec.Command("go", "list", "-e", "-deps", "-test", "-export", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}
	type listed struct {
		Dir, ImportPath, ForTest, Export string
		GoFiles                          []string
		ImportMap                        map[string]string
		Module                           *struct {
			Path string
			Main bool
		}
	}
	var pkgs []*listed
	byID := map[string]*listed{}
	g := &graph{decls: map[string]*decl{}, methods: map[string][]*decl{}, byName: map[string][]*decl{}}
	for dec := json.NewDecoder(bytes.NewReader(raw)); dec.More(); {
		p := new(listed)
		if err := dec.Decode(p); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
		byID[p.ImportPath] = p
		if p.Module != nil && p.Module.Main {
			g.mod = p.Module.Path
		}
	}
	fset := token.NewFileSet()
	for _, p := range pkgs {
		path, variant, _ := strings.Cut(p.ImportPath, " ")
		switch {
		case p.Module == nil || !p.Module.Main || strings.HasSuffix(path, ".test"):
			continue
		case variant == "" && byID[path+" ["+path+".test]"] != nil:
			continue // the test variant holds the same files
		case variant != "" && path != p.ForTest && path != p.ForTest+"_test":
			continue // recompiled for another package's test
		}
		lookup := func(imp string) (io.ReadCloser, error) {
			if id, ok := p.ImportMap[imp]; ok {
				imp = id
			}
			if dep := byID[imp]; dep != nil && dep.Export != "" {
				return os.Open(dep.Export)
			}
			return nil, fmt.Errorf("no export data for %s", imp)
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: importer.ForCompiler(fset, "gc", lookup)}
		if _, err := conf.Check(path, fset, files, info); err != nil {
			return nil, fmt.Errorf("type-check %s: %v", p.ImportPath, err)
		}
		for _, f := range files {
			g.addFile(fset.Position(f.Package).Filename, fset, f, path, info)
		}
	}
	return g, nil
}

// addFile records the file's declarations and what each refers to.
func (g *graph) addFile(file string, fset *token.FileSet, f *ast.File, path string, info *types.Info) {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, g.mod), "/")
	top, _, _ := strings.Cut(rel, "/")
	class := "prod"
	switch {
	case strings.HasSuffix(file, "_test.go") || rel == "internal/faultnet":
		class = "test"
	case top == "bench":
		class = "bench"
	case top == "examples":
		class = "example"
	}
	add := func(d *decl) *decl {
		g.decls[d.key] = d
		g.all = append(g.all, d)
		return d
	}
	declare := func(id *ast.Ident) *decl {
		return add(&decl{key: keyOf(info.Defs[id]), pos: fset.Position(id.Pos()), class: class})
	}
	init := g.decls[path+".init#"+class]
	if init == nil {
		init = add(&decl{key: path + ".init#" + class, pos: fset.Position(f.Package), class: class, root: class == "prod"})
	}
	for _, fd := range f.Decls {
		if fd, ok := fd.(*ast.FuncDecl); ok {
			if fd.Recv == nil && fd.Name.Name == "init" {
				g.refs(init, fd, info)
				continue
			}
			d := declare(fd.Name)
			d.root = class == "prod" && fd.Recv == nil && fd.Name.Name == "main" && (top == "cmd" || top == "tools")
			if fn := info.Defs[fd.Name].(*types.Func); fd.Recv != nil {
				d.recv, d.name, d.std = recvKey(fn), fn.Name(), std(fn)
				g.methods[d.recv] = append(g.methods[d.recv], d)
				g.byName[d.name] = append(g.byName[d.name], d)
			}
			g.refs(d, fd, info)
			continue
		}
		gd := fd.(*ast.GenDecl)
		var block *decl // the one decl of an iota block
		for _, s := range gd.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				g.refs(declare(s.Name), s, info)
			case *ast.ValueSpec:
				for _, id := range s.Names {
					d := init // a blank var's initializer runs, used or not
					switch {
					case id.Name == "_":
					case block != nil:
						g.decls[keyOf(info.Defs[id])] = block
						d = block
					default:
						d = declare(id)
						if gd.Tok == token.CONST && usesIota(gd) {
							block = d
						}
					}
					g.refs(d, s, info)
				}
				if gd.Tok == token.VAR && init.root { // initializers run at start-up
					for _, v := range s.Values {
						g.refs(init, v, info)
					}
				}
			}
		}
	}
}

func usesIota(gd *ast.GenDecl) bool {
	found := false
	ast.Inspect(gd, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		found = found || ok && id.Name == "iota"
		return !found
	})
	return found
}

// refs records what the syntax under n refers to, on behalf of d.
func (g *graph) refs(d *decl, n ast.Node, info *types.Info) {
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || info.Uses[id] == nil {
			return true
		}
		obj := info.Uses[id]
		if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil && recvKey(fn) == "" {
			d.iface = append(d.iface, fn.Name())
		} else if p := obj.Pkg(); p != nil && (p.Path() == g.mod || strings.HasPrefix(p.Path(), g.mod+"/")) {
			if k := keyOf(obj); k != "" {
				d.uses = append(d.uses, k)
			}
		}
		return true
	})
}

// keyOf names a module-level object; "" for anything else (fields, locals,
// interface methods).
func keyOf(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if fn.Type().(*types.Signature).Recv() != nil {
			if r := recvKey(fn); r != "" {
				return r + "." + fn.Name()
			}
			return ""
		}
		obj = fn.Origin()
	}
	if obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// recvKey is the key of a method's receiver type, "" for an interface's.
func recvKey(fn *types.Func) string {
	t := fn.Origin().Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok && !types.IsInterface(named) {
		obj := named.Origin().Obj()
		return obj.Pkg().Path() + "." + obj.Name()
	}
	return ""
}

// std reports whether the standard library calls the method through an
// interface its receiver implements.
func std(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	shape := fn.Name()
	for _, t := range []*types.Tuple{sig.Params(), sig.Results()} {
		var s []string
		for i := range t.Len() {
			s = append(s, types.TypeString(t.At(i).Type(), nil))
		}
		shape += "(" + strings.Join(s, ",") + ")"
	}
	switch shape {
	case "Error()(string)", "String()(string)", "Is(error)(bool)", "Unwrap()(error)",
		"MarshalJSON()([]byte,error)", "UnmarshalJSON([]byte)(error)":
		return true
	case "Len()(int)", "Less(int,int)(bool)", "Swap(int,int)()", "Push(any)()", "Pop()(any)":
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		ms := types.NewMethodSet(types.NewPointer(t)) // heap.Interface's
		return ms.Lookup(fn.Pkg(), "Push") != nil && ms.Lookup(fn.Pkg(), "Pop") != nil && ms.Lookup(fn.Pkg(), "Less") != nil
	}
	return false
}

// reach closes roots over uses, interface calls by name, and the methods
// the standard library calls on live types.
func (g *graph) reach(roots []*decl) map[*decl]bool {
	live := map[*decl]bool{}
	names := map[string]bool{}
	stack := []*decl{}
	mark := func(d *decl) {
		if d != nil && !live[d] {
			live[d] = true
			stack = append(stack, d)
		}
	}
	for _, d := range roots {
		mark(d)
	}
	for len(stack) > 0 {
		d := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, k := range d.uses {
			mark(g.decls[k])
		}
		for _, name := range d.iface {
			if !names[name] {
				names[name] = true
				for _, m := range g.byName[name] {
					if live[g.decls[m.recv]] {
						mark(m)
					}
				}
			}
		}
		for _, m := range g.methods[d.key] {
			if m.std || names[m.name] {
				mark(m)
			}
		}
	}
	return live
}

// usersOf lists d's direct users by class, at most three names each.
func (g *graph) usersOf(d *decl) string {
	by := map[string][]string{}
	for _, u := range g.all {
		if u != d && slices.ContainsFunc(u.uses, func(k string) bool { return g.decls[k] == d }) {
			by[u.class] = append(by[u.class], g.short(u.key))
		}
	}
	var parts []string
	for _, c := range []string{"bench", "example", "test", "prod"} {
		if names := by[c]; len(names) > 0 {
			sort.Strings(names)
			s := strings.Replace(c, "prod", "via", 1) + ": " + strings.Join(names[:min(3, len(names))], ", ")
			if len(names) > 3 {
				s += fmt.Sprintf(" (+%d)", len(names)-3)
			}
			parts = append(parts, s)
		}
	}
	if len(parts) == 0 {
		return "no users"
	}
	return strings.Join(parts, "; ")
}

// short drops the module path from a key.
func (g *graph) short(key string) string {
	return strings.TrimPrefix(key, g.mod+"/")
}

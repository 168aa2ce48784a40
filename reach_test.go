package soemt_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// Library code is what programs run. A program is a main under cmd/,
// examples/ or perfbench/, an init function or package-level
// initializer, or the exported API of this facade (the only package
// code outside the module can import). TestLibraryCodeIsReachable
// fails on any function or method in a non-test file outside
// perfbench/ that no program reaches, unless it is listed here or
// belongs to an exempt package. A change that removes the last caller
// of a function deletes the function too.
var reachAllowlist = map[string]string{
	"internal/pipeline.(*Pipeline).producerDone": "reference: the full-scan readiness predicate TestIssueWakeCacheTransparent checks the wake cache against",
	"internal/serve.(*Server).WaitIdle":          "test seam: waits for the job pool to empty, so tests need not poll",
	"internal/obs.(*Gauge).Load":                 "test seam: reads one gauge, so tests need not parse the registry's text",
}

// reachExemptPackages keep their whole exported API.
var reachExemptPackages = map[string]string{
	"internal/faultinject": "the fault-injection harness: tests arm it, production code holds nil injectors",
}

// reachStdlibCalled names methods the standard library calls on values
// it is handed as interfaces or through reflection.
var reachStdlibCalled = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true, "Timeout": true, "Temporary": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"ServeHTTP": true, "RoundTrip": true, "Read": true, "Write": true, "Close": true,
	"WriteTo": true, "ReadFrom": true, "Len": true, "Less": true, "Swap": true,
	"Push": true, "Pop": true, "Set": true, "Get": true, "IsBoolFlag": true,
}

const reachModule = "soemt"

func TestLibraryCodeIsReachable(t *testing.T) {
	pkgs, err := reachLoad(".")
	if err != nil {
		t.Fatal(err)
	}
	r := &reach{
		live:   map[types.Object]bool{},
		decls:  map[types.Object]reachDecl{},
		ifaces: map[string]bool{},
	}
	byName := map[string]types.Object{}
	var roots []types.Object
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					site := reachDecl{p, d}
					obj := p.info.Defs[d.Name]
					r.decls[obj] = site
					if d.Recv != nil {
						r.methods = append(r.methods, obj.(*types.Func))
					}
					byName[site.name()] = obj
					program := d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.types.Name() == "main")
					if program || reachExemptPackages[p.rel] != "" && d.Name.IsExported() && reachRecvExported(d) {
						roots = append(roots, obj)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							r.decls[p.info.Defs[s.Name]] = reachDecl{p, s}
						case *ast.ValueSpec:
							if d.Tok == token.VAR {
								r.push(reachDecl{p, s})
							}
						}
					}
				}
			}
		}
	}
	for _, obj := range roots {
		r.mark(obj)
	}
	facade := pkgs[reachModule].types.Scope()
	for _, name := range facade.Names() {
		if obj := facade.Lookup(name); obj.Exported() {
			r.mark(obj)
			if _, ok := obj.(*types.TypeName); ok {
				r.exportAPI(obj.Type())
			}
		}
	}
	r.propagate()

	for name, reason := range reachAllowlist {
		obj, ok := byName[name]
		switch {
		case reason == "":
			t.Errorf("allowlist entry %s gives no reason", name)
		case !ok:
			t.Errorf("allowlist entry %s names no function; delete the entry", name)
		case r.live[obj]:
			t.Errorf("allowlist entry %s is reachable from a program; delete the entry", name)
		default:
			r.mark(obj)
		}
	}
	r.propagate()

	var dead []token.Position
	names := map[token.Position]string{}
	for obj, site := range r.decls {
		fd, ok := site.node.(*ast.FuncDecl)
		if !ok || r.live[obj] || site.pkg.rel == "perfbench" || strings.HasPrefix(site.pkg.rel, "perfbench/") {
			continue
		}
		pos := site.pkg.fset.Position(fd.Pos())
		dead = append(dead, pos)
		names[pos] = site.name()
	}
	if len(dead) == 0 {
		return
	}
	sort.Slice(dead, func(i, j int) bool {
		if dead[i].Filename != dead[j].Filename {
			return dead[i].Filename < dead[j].Filename
		}
		return dead[i].Line < dead[j].Line
	})
	var b strings.Builder
	for _, pos := range dead {
		fmt.Fprintf(&b, "\n\t%s:%d %s", pos.Filename, pos.Line, names[pos])
	}
	t.Errorf("%d functions in non-test files are reached by no program; delete them, or allowlist a reference implementation or test seam with its reason:%s", len(dead), b.String())
}

// reachPkg is one type-checked package of the tree.
type reachPkg struct {
	rel   string // import path below the module; the module path for the root
	fset  *token.FileSet
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// reachDecl is a declaration: a *ast.FuncDecl, *ast.TypeSpec or a
// package-level *ast.ValueSpec.
type reachDecl struct {
	pkg  *reachPkg
	node ast.Node
}

func (d reachDecl) name() string {
	fd := d.node.(*ast.FuncDecl)
	name := fd.Name.Name
	if fd.Recv != nil {
		recv := types.ExprString(fd.Recv.List[0].Type)
		if strings.HasPrefix(recv, "*") {
			recv = "(" + recv + ")"
		}
		name = recv + "." + name
	}
	return d.pkg.rel + "." + name
}

// reachRecvExported reports whether fd is a function or a method of an
// exported type.
func reachRecvExported(fd *ast.FuncDecl) bool {
	if fd.Recv == nil {
		return true
	}
	x := fd.Recv.List[0].Type
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.IsExported()
		default:
			return false
		}
	}
}

// reachLoad parses every non-test Go file under root (skipping
// dot-directories, _-directories and testdata/) and type-checks the
// packages, resolving module imports from the tree and the standard
// library from source.
func reachLoad(root string) (map[string]*reachPkg, error) {
	// The source importer reads build.Default. Without cgo it type-checks
	// the standard library's pure-Go files and needs no C compiler.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	pkgs := map[string]*reachPkg{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(path, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		} else if err != nil {
			return err
		}
		p := &reachPkg{rel: filepath.ToSlash(path), fset: fset}
		if path == root {
			p.rel = reachModule
		}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(path, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		pkgs[p.rel] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("no Go package under %s", root)
	}
	im := &reachImporter{std: importer.ForCompiler(fset, "source", nil), pkgs: pkgs}
	for _, p := range pkgs {
		im.check(p)
	}
	if len(im.errs) > 0 {
		return nil, fmt.Errorf("type errors:\n\t%s", strings.Join(im.errs, "\n\t"))
	}
	return pkgs, nil
}

// reachImporter type-checks the tree's packages on demand and imports
// the standard library from source.
type reachImporter struct {
	std  types.Importer
	pkgs map[string]*reachPkg
	errs []string
}

func (im *reachImporter) Import(path string) (*types.Package, error) {
	if path == reachModule || strings.HasPrefix(path, reachModule+"/") {
		p, ok := im.pkgs[strings.TrimPrefix(path, reachModule+"/")]
		if !ok {
			return nil, fmt.Errorf("package %s is not in the tree", path)
		}
		im.check(p)
		return p.types, nil
	}
	return im.std.Import(path)
}

func (im *reachImporter) check(p *reachPkg) {
	if p.types != nil {
		return
	}
	p.info = &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	path := reachModule
	if p.rel != reachModule {
		path += "/" + p.rel
	}
	conf := types.Config{Importer: im, Error: func(err error) { im.errs = append(im.errs, err.Error()) }}
	p.types, _ = conf.Check(path, p.fset, p.files, p.info)
}

// reach marks what programs reach. An object is live once a live
// declaration uses it; a method is also live when its receiver type is
// live and its name is called through an interface somewhere, or the
// standard library calls it.
type reach struct {
	live    map[types.Object]bool
	decls   map[types.Object]reachDecl
	methods []*types.Func
	ifaces  map[string]bool // method names reachable through an interface
	work    []reachDecl
}

func (r *reach) push(d reachDecl) { r.work = append(r.work, d) }

func (r *reach) mark(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
		if recv := o.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			r.ifaces[o.Name()] = true
		}
	case *types.Var:
		obj = o.Origin()
	case *types.TypeName:
		r.addIface(o.Type())
	}
	if r.live[obj] {
		return
	}
	r.live[obj] = true
	if d, ok := r.decls[obj]; ok {
		r.push(d)
	}
}

// addIface records the method names of an interface type.
func (r *reach) addIface(t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < it.NumMethods(); i++ {
			r.ifaces[it.Method(i).Name()] = true
		}
	}
}

func (r *reach) propagate() {
	for {
		for len(r.work) > 0 {
			d := r.work[len(r.work)-1]
			r.work = r.work[:len(r.work)-1]
			ast.Inspect(d.node, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if obj := d.pkg.info.Uses[n]; obj != nil {
						r.mark(obj)
					}
				case *ast.CallExpr:
					// A value passed as an interface parameter may have
					// any of the interface's methods called on it.
					if sig, ok := d.pkg.info.Types[n.Fun].Type.(*types.Signature); ok {
						for i := 0; i < sig.Params().Len(); i++ {
							r.addIface(sig.Params().At(i).Type())
						}
					}
				}
				return true
			})
		}
		for _, m := range r.methods {
			if r.live[m] || !r.ifaces[m.Name()] && !reachStdlibCalled[m.Name()] {
				continue
			}
			recv := m.Type().(*types.Signature).Recv().Type()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			if named, ok := types.Unalias(recv).(*types.Named); ok && r.live[named.Origin().Obj()] {
				r.mark(m)
			}
		}
		if len(r.work) == 0 {
			return
		}
	}
}

// exportAPI marks the exported methods of a type the facade exports:
// code outside the module holds values of it.
func (r *reach) exportAPI(t types.Type) {
	if !types.IsInterface(t) {
		t = types.NewPointer(t)
	}
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		if m := ms.At(i).Obj(); m.Exported() {
			r.mark(m)
		}
	}
}

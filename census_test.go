package spam

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
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
	"testing"
)

// keep names the declarations that no command, example or benchmark
// workload reaches, and the fields nothing outside tests reads, that stay
// anyway, each with the test or benchmark/ file that needs it. A key is the
// package path below the module, a dot, and the declaration (Type.Method
// for a method, Type.Field for a field), or a package path alone, which keeps
// every declaration of a package only tests import.
var keep = map[string]string{
	"internal/am.ChannelDebug":          "am's PollWait equivalence tests compare channel snapshots before and after",
	"internal/am.Endpoint.DebugChannel": "am's PollWait equivalence tests take the channel snapshot through it",
	"internal/am.Stats.RTTSamples":      "TestShortEchoZeroAlloc, TestBulkZeroAlloc and TestPollWaitMatchesPollLoop check Karn samples were taken; a metric tag would move chaos-kill.txt",

	"internal/faults.StandardPlans": "the chaos plans the MPI and Split-C oracles, the nas chaos tests and bench's kv chaos test run under",
	"internal/faults.FailStopPlans": "the fail-stop plans the faults tests check against the standard ones",

	"internal/matchoracle": "the matching model the mpl and mpi drawn-program oracles share",

	"internal/hw.DropIf":               "am and hw tests drop chosen packets with it to drive retransmission",
	"internal/hw.LossReport.TotalLost": "am, hw and mpl tests assert no packet was lost",
	"internal/hw.FaultStats.Total":     "bench's kv chaos test, the nas chaos tests and the MPI and Split-C oracles assert the fault plan touched packets",
	"internal/hw.Config.NodePar":       "benchmark/rep.go sets it (goes when benchmark/ drops its shims)",
	"internal/bench.Ran.Events":        "TestObserversDoNotPerturb checks a run fired events",

	"internal/kv.Service.Events":     "TestKVServedEventBudget pins the served path's event count",
	"internal/kv.Service.Losses":     "bench's kv chaos test reads the injected faults",
	"internal/kv.Service.Handoffs":   "TestKVServedEventBudget pins the served path's hand-offs",
	"internal/kv.Run":                "kv tests build and run a service in one call",
	"internal/kv.Service.ReadKey":    "kv tests check the post-run value of a key on every replica",
	"internal/kv.Service.KeyVersion": "kv tests check the post-run version of a key on every replica",
	"internal/kv.Config.NodePar":     "benchmark/workloads.go sets it (goes when benchmark/ drops its shims)",

	"internal/mpi.AnyTag":              "MPI's name for mpl.AnyTag, which the MPI matching tests and the oracle's fixed programs use",
	"internal/mpi.allocator.freeBytes": "the allocator tests check that every freed byte comes back",
	"internal/mpi.Status.Tag":          "the MPI oracle hands every receive's status to matchoracle's checker",
	"internal/mpi.Comm.SendB.tag":      "benchmark/ladder.go's ping-pong always passes tag 1 (the alias goes with ROADMAP item 11)",
	"internal/mpi.Comm.RecvB.tag":      "benchmark/ladder.go's ping-pong always passes tag 1 (the alias goes with ROADMAP item 11)",

	"internal/nas.Result.Bench": "benchmark/workloads.go names the kernel through nas.Run, which returns it",
	"internal/nas.Result.Impl":  "benchmark/workloads.go names the implementation through nas.Run, which returns it",

	"internal/sim.Proc.Yield":     "TestWakeOrderPinned and the engine benchmarks yield with it",
	"internal/sim.Cond.Broadcast": "TestWakeOrderPinned and the condition tests wake every waiter with it",
	"internal/sim.Cond.Waiting":   "TestWakeOrderPinned counts the parked waiters with it",
	"internal/sim.Engine.Rand":    "TestWakeOrderPinned draws its schedule from the engine's seeded stream",
	"internal/sim.Engine.At":      "the heap-order reference tests schedule absolute-time events with it",

	"internal/trace.Histogram.Sum": "TestKVUnloadedWriteCost pins the summed write latency",

	"internal/splitc/apps.MatMulSerialChecksum": "the apps tests' serial reference for the distributed matmul",
	"internal/splitc/apps.SampleSortLayout":     "the apps tests' reference for where sample sort leaves each key",
}

// TestEveryDeclarationHasACaller is the reachability census. Its roots are
// every declaration in cmd/, examples/ and the benchmark/ module; from them
// it follows every identifier use, and a method counts as reached when its
// receiver type is reached and either something names it or the type
// implements an interface with that method (see dynamicCalls). A declaration it
// never reaches serves tests at most: delete it, or give it a keep entry
// naming the test that needs it. The same rule holds one level down: a struct
// field nothing outside tests reads (unreadFields), and a parameter every
// production call passes the same constant (constantParams).
func TestEveryDeclarationHasACaller(t *testing.T) {
	c := newCensus()
	for _, dir := range []string{".", "benchmark"} {
		pkgs, err := goList(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkgs {
			c.listed[p.ImportPath] = p
			if dir == "benchmark" || strings.HasPrefix(p.ImportPath, "spam/cmd/") || strings.HasPrefix(p.ImportPath, "spam/examples/") {
				c.rootPkgs[p.ImportPath] = true
			}
			if dir == "." {
				c.checked[p.ImportPath] = true
			}
		}
	}
	for path := range c.listed {
		if _, err := c.Import(path); err != nil {
			t.Fatal(err)
		}
	}
	dynamic := c.dynamicCalls()
	var found []finding
	for _, d := range c.walk(dynamic) {
		found = append(found, finding{d.obj.Pos(), d.key(), "no command, example or benchmark reaches it", declKind})
	}
	found = append(found, c.unreadFields()...)
	found = append(found, c.constantParams(dynamic)...)
	sort.Slice(found, func(i, j int) bool {
		pi, pj := c.fset.Position(found[i].pos), c.fset.Position(found[j].pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Offset < pj.Offset
	})

	wd, _ := os.Getwd()
	seen := make(map[string]bool)
	var kept [3]int
	for _, f := range found {
		key := f.key
		if pkg, _, _ := strings.Cut(key, "."); keep[pkg] != "" {
			key = pkg
		}
		seen[key] = true
		if _, ok := keep[key]; ok {
			kept[f.kind]++
			continue
		}
		pos := c.fset.Position(f.pos)
		if rel, err := filepath.Rel(wd, pos.Filename); err == nil {
			pos.Filename = rel
		}
		t.Errorf("%s: %s: %s", pos, f.key, f.what)
	}
	for key := range keep {
		if !seen[key] {
			t.Errorf("keep entry %s names nothing the census finds; delete the entry", key)
		}
	}
	t.Logf("census: %d declarations, %d fields, %d parameters kept", kept[declKind], kept[fieldKind], kept[paramKind])
}

// finding is one thing the census reports: an unreached declaration, an
// unread field or a constant parameter, under its keep key.
type finding struct {
	pos       token.Pos
	key, what string
	kind      int
}

const (
	declKind = iota
	fieldKind
	paramKind
)

// listedPkg is the part of `go list -json` the census reads. The census's
// self-test lists packages whose files are Src, not on disk.
type listedPkg struct {
	Dir, ImportPath string
	GoFiles         []string
	Src             map[string]string `json:"-"`
}

func goList(dir string) ([]listedPkg, error) {
	cmd := exec.Command("go", "list", "-json=Dir,ImportPath,GoFiles", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %w\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

// census type-checks the listed packages from source; it is the importer
// of its own packages and hands the standard library to the source importer.
type census struct {
	fset     *token.FileSet
	std      types.Importer
	info     *types.Info
	listed   map[string]listedPkg
	rootPkgs map[string]bool
	checked  map[string]bool // the root module's packages, whose fields and parameters are checked
	pkgs     map[string]*types.Package
	files    map[string][]*ast.File
}

func newCensus() *census {
	fset := token.NewFileSet()
	return &census{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
		listed:   map[string]listedPkg{},
		rootPkgs: map[string]bool{},
		checked:  map[string]bool{},
		pkgs:     map[string]*types.Package{},
		files:    map[string][]*ast.File{},
	}
}

func (c *census) Import(path string) (*types.Package, error) {
	if pkg, ok := c.pkgs[path]; ok {
		return pkg, nil
	}
	lp, ok := c.listed[path]
	if !ok {
		return c.std.Import(path)
	}
	var files []*ast.File
	for _, name := range lp.GoFiles {
		var src any
		if lp.Src != nil {
			src = lp.Src[name]
		}
		f, err := parser.ParseFile(c.fset, filepath.Join(lp.Dir, name), src, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: c}
	pkg, err := conf.Check(path, c.fset, files, c.info)
	if err != nil {
		return nil, err
	}
	c.pkgs[path], c.files[path] = pkg, files
	return pkg, nil
}

// decl is one package-level declaration or method: the object it defines
// and the syntax whose identifier uses are its outgoing edges.
type decl struct {
	obj  types.Object
	node ast.Node
	recv *types.TypeName // a method's receiver type, nil otherwise
}

func (d *decl) key() string {
	name := d.obj.Name()
	if d.recv != nil {
		name = d.recv.Name() + "." + name
	}
	return strings.TrimPrefix(d.obj.Pkg().Path(), "spam/") + "." + name
}

// walk returns the declarations outside the root packages that no root
// reaches.
func (c *census) walk(dynamic func(tn *types.TypeName, method string) bool) []*decl {
	var all []*decl
	decls := make(map[types.Object]*decl)
	methods := make(map[*types.TypeName][]*decl)
	var roots []*decl
	// add records one declaration of ids with node as its syntax. A blank
	// declaration and init are evaluated whether or not anything names
	// them, so they are roots and never reported.
	add := func(path string, node ast.Node, ids ...*ast.Ident) {
		d := &decl{node: node}
		for _, id := range ids {
			if fd, ok := node.(*ast.FuncDecl); id.Name == "_" || ok && fd.Recv == nil && id.Name == "init" {
				continue
			}
			obj := c.info.Defs[id]
			if d.obj == nil {
				d.obj = obj
			}
			decls[obj] = d
		}
		if d.obj == nil {
			roots = append(roots, d)
			return
		}
		if fn, ok := d.obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				d.recv = namedOf(recv.Type()).Obj()
				methods[d.recv] = append(methods[d.recv], d)
			}
		}
		all = append(all, d)
		if c.rootPkgs[path] {
			roots = append(roots, d)
		}
	}
	for path, files := range c.files {
		for _, f := range files {
			for _, gd := range f.Decls {
				switch gd := gd.(type) {
				case *ast.FuncDecl:
					add(path, gd, gd.Name)
				case *ast.GenDecl:
					if gd.Tok == token.CONST && usesIota(gd) {
						// An iota group is one declaration: each value is
						// its position, so no member can go alone.
						var ids []*ast.Ident
						for _, spec := range gd.Specs {
							ids = append(ids, spec.(*ast.ValueSpec).Names...)
						}
						add(path, gd, ids...)
						continue
					}
					for _, spec := range gd.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add(path, s, s.Name)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(path, s, id)
							}
						}
					}
				}
			}
		}
	}

	reached := make(map[*decl]bool)
	named := make(map[*decl]bool) // methods something names
	var work []*decl
	reach := func(d *decl) {
		if !reached[d] {
			reached[d] = true
			work = append(work, d)
		}
	}
	for _, d := range roots {
		reach(d)
	}
	for len(work) > 0 {
		d := work[len(work)-1]
		work = work[:len(work)-1]
		if tn, ok := d.obj.(*types.TypeName); ok {
			for _, m := range methods[tn] {
				if named[m] || dynamic(tn, m.obj.Name()) {
					reach(m)
				}
			}
		}
		ast.Inspect(d.node, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := c.info.Uses[id]
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			u := decls[obj]
			if u == nil {
				return true
			}
			if u.recv == nil {
				reach(u)
				return true
			}
			named[u] = true
			if reached[decls[u.recv]] {
				reach(u)
			}
			return true
		})
	}

	var out []*decl
	for _, d := range all {
		if !reached[d] {
			out = append(out, d)
		}
	}
	return out
}

// unreadFields returns the struct fields the root module declares that no
// non-test code reads. Assigning a field (with = or op=), ++ or -- on it,
// writing one of its elements, growing it in its own assignment (x.f =
// append(x.f, …)) and naming it as a composite-literal key are not reads;
// every other use is. A tagged field is read by reflection, the
// fields of a struct used as a map key or compared with == or != are read
// by the comparison, an embedded field is read by every promotion through
// it, and the fields of a kept type stay with it.
func (c *census) unreadFields() []finding {
	writes := make(map[*ast.Ident]bool)
	read := make(map[*types.Var]bool)
	// compared marks every field a comparison of a t value reads.
	var compared func(t types.Type)
	compared = func(t types.Type) {
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if f := u.Field(i).Origin(); !read[f] {
					read[f] = true
					compared(f.Type())
				}
			}
		case *types.Array:
			compared(u.Elem())
		}
	}
	for _, files := range c.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						if id := assigned(lhs); id != nil {
							writes[id] = true
						}
						if len(n.Rhs) == len(n.Lhs) {
							if id := c.selfAppend(lhs, n.Rhs[i]); id != nil {
								writes[id] = true
							}
						}
					}
				case *ast.IncDecStmt:
					if id := assigned(n.X); id != nil {
						writes[id] = true
					}
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						writes[id] = true
					}
				case *ast.MapType:
					compared(c.info.Types[n.Key].Type)
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						compared(c.info.Types[n.X].Type)
					}
				}
				return true
			})
		}
	}
	for id, obj := range c.info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() && !writes[id] {
			read[v.Origin()] = true
		}
	}

	var out []finding
	for path, files := range c.files {
		if !c.checked[path] {
			continue
		}
		for _, f := range files {
			for _, gd := range f.Decls {
				// owner is the declaration a struct type is written in:
				// its type, or the function or variable holding a literal.
				var owner string
				switch gd := gd.(type) {
				case *ast.FuncDecl:
					owner = gd.Name.Name
					if gd.Recv != nil {
						owner = namedOf(c.info.Defs[gd.Name].(*types.Func).Type().(*types.Signature).Recv().Type()).Obj().Name() + "." + owner
					}
					out = append(out, c.structFields(path, owner, gd, read)...)
				case *ast.GenDecl:
					for _, spec := range gd.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							owner = s.Name.Name
						case *ast.ValueSpec:
							owner = s.Names[0].Name
						default:
							continue
						}
						out = append(out, c.structFields(path, owner, spec, read)...)
					}
				}
			}
		}
	}
	return out
}

// structFields returns a finding for each unread named field of the struct
// types written in node, which belongs to the declaration owner of path.
func (c *census) structFields(path, owner string, node ast.Node, read map[*types.Var]bool) []finding {
	prefix := strings.TrimPrefix(path, "spam/") + "." + owner
	if _, ok := keep[prefix]; ok {
		return nil
	}
	var out []finding
	ast.Inspect(node, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		for _, field := range st.Fields.List {
			if field.Tag != nil {
				continue
			}
			for _, id := range field.Names {
				if v := c.info.Defs[id].(*types.Var); !read[v] && id.Name != "_" {
					out = append(out, finding{id.Pos(), prefix + "." + id.Name, "no non-test code reads this field", fieldKind})
				}
			}
		}
		return true
	})
	return out
}

// assigned returns the selector an assignment or ++/-- writes through:
// f in x.f, x.f[i] or x.f[i][j]; nil when the target is no selector.
func assigned(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel
		default:
			return nil
		}
	}
}

// selfAppend returns the field f that rhs grows when the assignment is
// x.f = append(x.f, …), which reads x.f only to grow it; otherwise nil.
func (c *census) selfAppend(lhs, rhs ast.Expr) *ast.Ident {
	call, ok := rhs.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 || types.ExprString(call.Args[0]) != types.ExprString(lhs) {
		return nil
	}
	if fun, ok := call.Fun.(*ast.Ident); !ok || c.info.Uses[fun] != types.Universe.Lookup("append") {
		return nil
	}
	return assigned(call.Args[0])
}

// constantParams returns the parameters of the root module's functions and
// methods that every production call passes the same constant, among those
// called from at least two places. Variadic functions, functions used as
// values and methods an interface may call (dynamic) are left out: their
// call sites are not all visible.
func (c *census) constantParams(dynamic func(tn *types.TypeName, method string) bool) []finding {
	calls := make(map[*types.Func][]*ast.CallExpr)
	callee := make(map[*ast.Ident]bool) // identifiers in call position
	for _, files := range c.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fun := ast.Unparen(call.Fun)
				switch x := fun.(type) {
				case *ast.IndexExpr:
					fun = x.X
				case *ast.IndexListExpr:
					fun = x.X
				}
				var id *ast.Ident
				switch x := fun.(type) {
				case *ast.Ident:
					id = x
				case *ast.SelectorExpr:
					if sel := c.info.Selections[x]; sel != nil && sel.Kind() == types.MethodExpr {
						return true
					}
					id = x.Sel
				}
				if fn, ok := c.info.Uses[id].(*types.Func); ok {
					callee[id] = true
					calls[fn.Origin()] = append(calls[fn.Origin()], call)
				}
				return true
			})
		}
	}
	asValue := make(map[*types.Func]bool)
	for id, obj := range c.info.Uses {
		if fn, ok := obj.(*types.Func); ok && !callee[id] {
			asValue[fn.Origin()] = true
		}
	}

	var out []finding
	for path, files := range c.files {
		if !c.checked[path] {
			continue
		}
		for _, f := range files {
			for _, gd := range f.Decls {
				fd, ok := gd.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn := c.info.Defs[fd.Name].(*types.Func)
				sig := fn.Type().(*types.Signature)
				name := fn.Name()
				if sig.Recv() != nil {
					recv := namedOf(sig.Recv().Type()).Obj()
					if dynamic(recv, name) {
						continue
					}
					name = recv.Name() + "." + name
				}
				if sig.Variadic() || asValue[fn] || len(calls[fn]) < 2 {
					continue
				}
				for i := 0; i < sig.Params().Len(); i++ {
					if v := c.sameConstant(calls[fn], i); v != "" {
						p := sig.Params().At(i)
						out = append(out, finding{p.Pos(), strings.TrimPrefix(path, "spam/") + "." + name + "." + p.Name(), "every production call passes " + v, paramKind})
					}
				}
			}
		}
	}
	return out
}

// sameConstant returns the constant every call passes as argument i, or ""
// when some call passes another value or no constant.
func (c *census) sameConstant(calls []*ast.CallExpr, i int) string {
	var first constant.Value
	for _, call := range calls {
		if i >= len(call.Args) {
			return ""
		}
		v := c.info.Types[call.Args[i]].Value
		if v == nil || first != nil && (v.Kind() != first.Kind() || !constant.Compare(v, token.EQL, first)) {
			return ""
		}
		first = v
	}
	return first.ExactString()
}

// dynamicCalls returns the test for a method that no identifier names: it
// may still be called through an interface when its type, or a struct type
// that embeds it and so carries the method, implements one the module
// declares (or error, or an exported interface of a package the module
// imports) that has the method's name. A generic type cannot be checked
// against an interface, so for it the name alone counts, as it does for the
// methods the errors package looks for through unexported interfaces.
func (c *census) dynamicCalls() func(tn *types.TypeName, method string) bool {
	byName := map[string][]*types.Interface{"Unwrap": nil, "Is": nil, "As": nil}
	embedders := map[*types.TypeName][]types.Type{}
	addIface := func(t types.Type) {
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		if it, ok := t.Underlying().(*types.Interface); ok && it.IsMethodSet() {
			for i := 0; i < it.NumMethods(); i++ {
				name := it.Method(i).Name()
				byName[name] = append(byName[name], it)
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, obj := range c.info.Defs {
		if tn, ok := obj.(*types.TypeName); ok {
			addIface(tn.Type())
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Embedded() {
						e := namedOf(f.Type()).Obj()
						embedders[e] = append(embedders[e], tn.Type())
					}
				}
			}
		}
	}
	for _, pkg := range c.pkgs {
		for _, imp := range pkg.Imports() {
			scope := imp.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
					addIface(tn.Type())
				}
			}
		}
	}
	return func(tn *types.TypeName, method string) bool {
		ifaces, ok := byName[method]
		if !ok {
			return false
		}
		t := tn.Type()
		if ifaces == nil || t.(*types.Named).TypeParams().Len() > 0 {
			return true
		}
		for _, it := range ifaces {
			for _, t := range append([]types.Type{t}, embedders[tn]...) {
				if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
					return true
				}
			}
		}
		return false
	}
}

func usesIota(gd *ast.GenDecl) bool {
	found := false
	ast.Inspect(gd, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
			found = true
		}
		return !found
	})
	return found
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Origin()
}

// TestCensusRules pins each rule of the field and parameter passes on a
// one-file package, type-checked by the census's own loader: a rule change
// that hides a write-only field or a constant parameter fails here.
func TestCensusRules(t *testing.T) {
	const T = "type T struct{ f int }\n"
	cases := []struct {
		name, path, src string
		want            []string // the keys found, below the package; the path is spam/x unless set
	}{
		{"assign is no read", "", T + "func g(x *T) { x.f = 1 }", []string{"T.f"}},
		{"op-assign is no read", "", T + "func g(x *T) { x.f += 1 }", []string{"T.f"}},
		{"increment is no read", "", T + "func g(x *T) { x.f++ }", []string{"T.f"}},
		{"element write is no read", "", "type T struct{ f []int }\nfunc g(x *T) { x.f[0] = 1 }", []string{"T.f"}},
		{"composite key is no read", "", T + "var v = T{f: 1}", []string{"T.f"}},
		{"self-append is no read", "", "type T struct{ f []int }\nfunc g(x *T) { x.f = append(x.f, 1) }", []string{"T.f"}},
		{"append to another field reads it", "", "type T struct{ f, h []int }\nfunc g(x *T) { x.h = append(x.f, 1) }", []string{"T.h"}},
		{"nested literal field", "", "var v = struct{ f int }{f: 1}", []string{"v.f"}},
		{"plain read", "", T + "func g(x *T) int { return x.f }", nil},
		{"tagged field", "", "type T struct{ f int `metric:\"f\"` }\nfunc g(x *T) { x.f++ }", nil},
		{"map key struct", "", "type K struct{ a, b int }\nvar m = map[K]bool{{a: 1, b: 2}: true}", nil},
		{"compared struct", "", "type K struct{ a int }\nfunc g(x K) bool { return x != K{a: 1} }", nil},
		{"address taken", "", T + "func g(x *T) *int { return &x.f }", nil},
		{"method value", "", "type N int\nfunc (N) M() {}\ntype T struct{ n N }\nfunc g(x *T) func() { x.n = 1; return x.n.M }", nil},
		{"embedded field", "", "type E struct{}\ntype T struct{ E }\nvar v = T{E: E{}}", nil},
		{"generic field through an instance", "", "type R[E any] struct{ buf []E }\nfunc g(r R[int]) []int { return r.buf }", nil},
		{"kept type", "spam/internal/am", "type ChannelDebug struct{ f int }\nfunc g(x *ChannelDebug) { x.f = 1 }", nil},

		{"constant parameter", "", "func h(a, b int) int { return a + b }\nfunc g(x int) { h(1, x); h(1, x+1) }", []string{"h.a"}},
		{"constant method parameter", "", "type T struct{}\nfunc (T) M(a int) {}\nfunc g(t T) { t.M(1); t.M(1) }", []string{"T.M.a"}},
		{"one call", "", "func h(a int) {}\nfunc g() { h(1) }", nil},
		{"different constants", "", "func h(a int) {}\nfunc g() { h(1); h(2) }", nil},
		{"interface method", "", "type I interface{ M(int) }\ntype T struct{}\nfunc (T) M(a int) {}\nfunc g(t T) { t.M(1); t.M(1) }", nil},
		{"promoted interface method", "", "type I interface{ M(int); N() }\ntype E struct{}\nfunc (E) M(a int) {}\ntype T struct{ E }\nfunc (T) N() {}\nfunc g(e E) { e.M(1); e.M(1) }", nil},
		{"embedder implements no interface", "", "type I interface{ M(int); N() }\ntype E struct{}\nfunc (E) M(a int) {}\ntype T struct{ E }\nfunc g(e E) { e.M(1); e.M(1) }", []string{"E.M.a"}},
		{"function value", "", "func h(a int) {}\nvar f = h\nfunc g() { h(1); h(1) }", nil},
		{"variadic", "", "func h(a int, b ...int) {}\nfunc g() { h(1); h(1) }", nil},
	}
	for _, tc := range cases {
		path := tc.path
		if path == "" {
			path = "spam/x"
		}
		c := newCensus()
		c.listed[path] = listedPkg{ImportPath: path, GoFiles: []string{"x.go"}, Src: map[string]string{"x.go": "package x\n" + tc.src}}
		c.checked[path] = true
		if _, err := c.Import(path); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var got []string
		for _, f := range append(c.unreadFields(), c.constantParams(c.dynamicCalls())...) {
			got = append(got, strings.TrimPrefix(f.key, strings.TrimPrefix(path, "spam/")+"."))
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: census finds %v, want %v", tc.name, got, tc.want)
		}
	}
}

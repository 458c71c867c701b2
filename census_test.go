package spam

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
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keep names the declarations that no command, example or benchmark
// workload reaches and that stay anyway, each with the test that needs it.
// A key is the package path below the module, a dot, and the declaration
// (Type.Method for a method).
var keep = map[string]string{
	"internal/am.ChannelDebug":          "am's PollWait equivalence tests compare channel snapshots before and after",
	"internal/am.Endpoint.DebugChannel": "am's PollWait equivalence tests take the channel snapshot through it",

	"internal/faults.BurstLoss":       "StandardPlans' burst-loss plan; faults and am tests build it directly",
	"internal/faults.Duplicate":       "StandardPlans' duplication plan; faults and hw tests build it directly",
	"internal/faults.Reorder":         "StandardPlans' reorder plan, run by the chaos soaks of four packages",
	"internal/faults.Corrupt":         "StandardPlans' corruption plan; faults and hw tests build it directly",
	"internal/faults.Blackout":        "StandardPlans' blackout plan; am's fail-stop and PollWait tests build it directly",
	"internal/faults.PartitionOneWay": "FailStopPlans' one-way partition, checked by the faults tests",
	"internal/faults.Degrade":         "StandardPlans' degraded-link plan, run by the chaos soaks",
	"internal/faults.Rule.OnClass":    "the faults tests scope a rule to a traffic class with it",
	"internal/faults.Rule.FromNode":   "the faults tests scope a rule to a source node with it",
	"internal/faults.Rule.ToNode":     "the faults tests scope a rule to a destination node with it",
	"internal/faults.Rule.Between":    "the faults tests scope a rule to a time window with it",
	"internal/faults.StandardPlans":   "the chaos harness the am, mpi, nas, splitc and bench soaks share",
	"internal/faults.FailStopPlans":   "the fail-stop plans the faults tests check against the standard ones",
	"internal/faults/soak.Run":        "the soak harness the mpi, nas and splitc chaos tests share",
	"internal/faults/soak.Workload":   "the workload type the shared soak harness runs",
	"internal/faults/soak.Soak":       "the per-plan soak loop the mpi, nas and splitc chaos tests share",
	"internal/faults/soak.Mix":        "the checksum the shared soak compares across plans",
	"internal/faults/soak.MixBytes":   "the byte checksum the shared soak compares across plans",

	"internal/hw.DropIf":               "am and hw tests drop chosen packets with it to drive retransmission",
	"internal/hw.LossReport.TotalLost": "am, hw and mpl tests assert no packet was lost",
	"internal/hw.FaultStats.Total":     "bench's kv chaos test asserts the fault plan touched packets",

	"internal/kv.Service.Events":     "TestKVServedEventBudget pins the served path's event count",
	"internal/kv.Service.Losses":     "bench's kv chaos test reads the injected faults",
	"internal/kv.Service.Handoffs":   "TestKVServedEventBudget pins the served path's hand-offs",
	"internal/kv.Run":                "kv tests build and run a service in one call",
	"internal/kv.Service.ReadKey":    "kv tests check the post-run value of a key on every replica",
	"internal/kv.Service.KeyVersion": "kv tests check the post-run version of a key on every replica",

	"internal/mpi.allocator.freeBytes": "the allocator tests check that every freed byte comes back",

	"internal/sim.Proc.Yield":     "TestWakeOrderPinned and the engine benchmarks yield with it",
	"internal/sim.Cond.Broadcast": "TestWakeOrderPinned and the condition tests wake every waiter with it",
	"internal/sim.Cond.Waiting":   "TestWakeOrderPinned counts the parked waiters with it",
	"internal/sim.Engine.Rand":    "TestWakeOrderPinned draws its schedule from the engine's seeded stream",
	"internal/sim.Engine.At":      "the heap-order reference tests schedule absolute-time events with it",

	"internal/splitc/apps.MatMulSerialChecksum": "the apps tests' serial reference for the distributed matmul",
	"internal/splitc/apps.SampleSortLayout":     "the apps tests' reference for where sample sort leaves each key",
	"internal/gam.Machine.RTs":                  "the apps sort tests read every node's segment on the Table-4 machines through it",
	"internal/splitc.MPLPlatform.RTs":           "the apps sort tests read every node's segment on Split-C over MPL through it",
	"internal/splitc.SPAMPlatform.RTs":          "the apps sort tests read every node's segment on Split-C over SP AM through it",
}

// TestEveryDeclarationHasACaller is the reachability census. Its roots are
// every declaration in cmd/, examples/ and the benchmark/ module; from them
// it follows every identifier use, and a method counts as reached when its
// receiver type is reached and either something names it or the type
// implements an interface with that method (see dynamicCalls). A declaration it
// never reaches serves tests at most: delete it, or give it a keep entry
// naming the test that needs it.
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
		}
	}
	for path := range c.listed {
		if _, err := c.Import(path); err != nil {
			t.Fatal(err)
		}
	}
	unreached := c.walk()

	wd, _ := os.Getwd()
	seen := make(map[string]bool)
	for _, d := range unreached {
		key := d.key()
		seen[key] = true
		if _, ok := keep[key]; ok {
			continue
		}
		pos := c.fset.Position(d.obj.Pos())
		if rel, err := filepath.Rel(wd, pos.Filename); err == nil {
			pos.Filename = rel
		}
		t.Errorf("%s: no command, example or benchmark reaches %s", pos, key)
	}
	for key := range keep {
		if !seen[key] {
			t.Errorf("keep entry %s names no unreached declaration; delete the entry", key)
		}
	}
}

// listedPkg is the part of `go list -json` the census reads.
type listedPkg struct {
	Dir, ImportPath string
	GoFiles         []string
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
	pkgs     map[string]*types.Package
	files    map[string][]*ast.File
}

func newCensus() *census {
	fset := token.NewFileSet()
	return &census{
		fset:     fset,
		std:      importer.ForCompiler(fset, "source", nil),
		info:     &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		listed:   map[string]listedPkg{},
		rootPkgs: map[string]bool{},
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
		f, err := parser.ParseFile(c.fset, filepath.Join(lp.Dir, name), nil, 0)
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
// reaches, in source order.
func (c *census) walk() []*decl {
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

	dynamic := c.dynamicCalls()
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
	sort.Slice(out, func(i, j int) bool {
		pi, pj := c.fset.Position(out[i].obj.Pos()), c.fset.Position(out[j].obj.Pos())
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Offset < pj.Offset
	})
	return out
}

// dynamicCalls returns the test for a method that no identifier names: it
// may still be called through an interface when its type implements one the
// module declares (or error, or an exported interface of a package the
// module imports) that has the method's name. A generic type cannot be
// checked against an interface, so for it the name alone counts, as it does
// for the methods the errors package looks for through unexported
// interfaces.
func (c *census) dynamicCalls() func(tn *types.TypeName, method string) bool {
	byName := map[string][]*types.Interface{"Unwrap": nil, "Is": nil, "As": nil}
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
			if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
				return true
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

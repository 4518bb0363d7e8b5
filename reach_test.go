package repro

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// repoFile is one parsed non-test Go file.
type repoFile struct {
	path string // slash-separated, relative to the repository root
	dir  string // path's directory
	f    *ast.File
}

// parseRepo parses every non-test Go file in the repository, the bench
// module included, since it drives this one.
func parseRepo(t *testing.T) (*token.FileSet, []repoFile) {
	t.Helper()
	fset := token.NewFileSet()
	var files []repoFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		p = filepath.ToSlash(p)
		files = append(files, repoFile{p, path.Dir(p), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, files
}

// reachTestOnly is the code under internal/ that no program reaches
// and that stays because a test uses it. TestExportsReachedOutsideTests
// treats each entry as a root once it has checked that no program
// reaches it, so what an entry calls needs no entry of its own. Every
// entry names the test that uses it and one of three reasons.
var reachTestOnly = []struct {
	decl, test, why string
}{
	{"internal/attack.Entry.Open", "TestOracleLattice", whyOracle},
	{"internal/attack.Catalogue", "TestAblationSweepDiagonal", whyOracle},
	{"internal/attack.Steps", "TestE17MatrixQualitativeStory", whyOracle},
	{"internal/mpicrypt.Sealer.Open", "TestSealOpenRoundtrip", whyOracle},
	{"internal/vfs.FS.SetfaclGroup", "TestACLGroupGrantRequiresMembership", whyRule},
	{"internal/fleet.LifecycleCampaign", "TestPooledTrialAllocsReduction", whyFixture},
	{"internal/metrics.Table.Rows", "TestTableRender", whyFixture},
}

// Why an entry in reachTestOnly stays.
const (
	whyOracle  = "an oracle or reference the test checks reached code against"
	whyRule    = "a §IV rule that no reached code enforces yet; its catalogue probe is ROADMAP item 10's next"
	whyFixture = "a fixture the tests of two packages share"
)

// reachRepo is the repository's non-test code, type-checked.
type reachRepo struct {
	fset  *token.FileSet
	files map[string][]*ast.File // by directory
	pkgs  map[string]*types.Package
	info  *types.Info
	std   types.Importer
}

// dirOf maps an import path of this module, or of the bench module
// inside it, to its directory.
func dirOf(importPath string) (string, bool) {
	if importPath == "repro" {
		return ".", true
	}
	return strings.CutPrefix(importPath, "repro/")
}

// Import type-checks a package of the repository from its parsed
// files, and hands any other to the compiler's export data.
func (r *reachRepo) Import(importPath string) (*types.Package, error) {
	dir, ok := dirOf(importPath)
	if !ok {
		return r.std.Import(importPath)
	}
	if pkg := r.pkgs[dir]; pkg != nil {
		return pkg, nil
	}
	if len(r.files[dir]) == 0 {
		return nil, fmt.Errorf("%s: no Go files", importPath)
	}
	conf := types.Config{Importer: r}
	pkg, err := conf.Check(importPath, r.fset, r.files[dir], r.info)
	if err != nil {
		return nil, err
	}
	r.pkgs[dir] = pkg
	return pkg, nil
}

// declName names a package-level declaration as reachTestOnly does:
// "internal/vfs.groupEntry", "internal/vfs.FS.SetfaclGroup".
func declName(dir string, obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Signature().Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				return dir + "." + n.Obj().Name() + "." + fn.Name()
			}
		}
	}
	return dir + "." + obj.Name()
}

// origin maps an instantiated generic function, method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// reacher walks declarations from a set of roots.
type reacher struct {
	info    *types.Info
	decls   map[types.Object][]ast.Node // what a reached object's declaration names
	reached map[types.Object]bool
	queue   []types.Object
	named   []*types.Named     // reached non-generic, non-interface types
	ifaces  []*types.Interface // reached interfaces, then the standard ones below
}

func (rc *reacher) reach(obj types.Object) {
	if obj == nil || obj.Pkg() == nil {
		return
	}
	obj = origin(obj)
	if _, ok := dirOf(obj.Pkg().Path()); !ok || rc.reached[obj] {
		return
	}
	rc.reached[obj] = true
	rc.queue = append(rc.queue, obj)
}

// walk reaches every object of the repository that n names.
func (rc *reacher) walk(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			rc.reach(rc.info.Uses[id])
		}
		return true
	})
}

// run drains the queue, then reaches every method through which a
// reached interface can call a reached type, until nothing new is
// reached.
func (rc *reacher) run() {
	for {
		for len(rc.queue) > 0 {
			obj := rc.queue[len(rc.queue)-1]
			rc.queue = rc.queue[:len(rc.queue)-1]
			for _, n := range rc.decls[obj] {
				rc.walk(n)
			}
			switch obj := obj.(type) {
			case *types.Var, *types.Const:
				// An iota constant's spec may not name its type.
				if n, ok := obj.Type().(*types.Named); ok {
					rc.reach(n.Obj())
				}
			case *types.TypeName:
				n, ok := obj.Type().(*types.Named)
				if !ok {
					break
				}
				if it, ok := n.Underlying().(*types.Interface); ok {
					rc.ifaces = append(rc.ifaces, it)
				} else if n.TypeParams().Len() == 0 {
					rc.named = append(rc.named, n)
				}
			}
		}
		for _, n := range rc.named {
			ptr := types.NewPointer(n)
			for _, it := range rc.ifaces {
				if !types.Implements(ptr, it) {
					continue
				}
				for i := range it.NumMethods() {
					m := it.Method(i)
					sel, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
					rc.reach(sel)
				}
			}
		}
		if len(rc.queue) == 0 {
			return
		}
	}
}

// testFuncs returns the name of every function the repository's test
// files declare.
func testFuncs(t *testing.T) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				out[fd.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestExportsReachedOutsideTests type-checks every non-test package of
// the repository (see parseRepo) and fails for each package-level
// function, method, type, var or const under internal/, exported or
// not, that no program reaches and reachTestOnly does not list. The
// roots are every main and init function and every package-level var
// initializer of a package a program links. A reached declaration
// reaches what its body, type or initializer names, by type, not by
// name; a reached type also reaches each method through which a
// reached interface, error, fmt.Stringer, json.Marshaler,
// json.Unmarshaler, sort.Interface or errors' Unwrap can call it. A
// reachTestOnly entry that a program reaches, that names no
// declaration, or whose test no test file declares, fails too.
func TestExportsReachedOutsideTests(t *testing.T) {
	fset, files := parseRepo(t)
	r := &reachRepo{
		fset:  fset,
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		info:  &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}},
		std:   importer.Default(),
	}
	for _, fl := range files {
		r.files[fl.dir] = append(r.files[fl.dir], fl.f)
	}
	rc := &reacher{info: r.info, decls: map[types.Object][]ast.Node{}, reached: map[types.Object]bool{}}
	var mains []string
	for dir, fs := range r.files {
		if _, err := r.Import(path.Join("repro", dir)); err != nil {
			t.Fatalf("type-checking %s: %v", dir, err)
		}
		if fs[0].Name.Name == "main" {
			mains = append(mains, dir)
		}
	}
	// The packages a program links.
	linked := map[*types.Package]bool{}
	var link func(p *types.Package)
	link = func(p *types.Package) {
		if _, ok := dirOf(p.Path()); !ok || linked[p] {
			return
		}
		linked[p] = true
		for _, q := range p.Imports() {
			link(q)
		}
	}
	for _, dir := range mains {
		link(r.pkgs[dir])
	}

	type candidate struct {
		obj  types.Object
		name string
		pos  token.Pos
	}
	var candidates []candidate
	var initRoots []ast.Node
	for dir, fs := range r.files {
		inLinked := linked[r.pkgs[dir]]
		for _, f := range fs {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := r.info.Defs[d.Name]
					rc.decls[obj] = append(rc.decls[obj], d)
					if d.Recv == nil && (d.Name.Name == "init" && inLinked || d.Name.Name == "main" && f.Name.Name == "main") {
						initRoots = append(initRoots, d)
						continue
					}
					candidates = append(candidates, candidate{obj, declName(dir, obj), d.Name.Pos()})
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							obj := r.info.Defs[s.Name]
							rc.decls[obj] = append(rc.decls[obj], s)
							candidates = append(candidates, candidate{obj, declName(dir, obj), s.Name.Pos()})
						case *ast.ValueSpec:
							if d.Tok == token.VAR && inLinked {
								for _, v := range s.Values {
									initRoots = append(initRoots, v)
								}
							}
							for _, id := range s.Names {
								if id.Name == "_" {
									continue
								}
								obj := r.info.Defs[id]
								rc.decls[obj] = append(rc.decls[obj], s)
								candidates = append(candidates, candidate{obj, declName(dir, obj), id.Pos()})
							}
						}
					}
				}
			}
		}
	}
	// The interfaces the standard library calls a program's types
	// through, beside the program's own.
	for _, p := range []struct{ pkg, name string }{
		{"fmt", "Stringer"},
		{"encoding/json", "Marshaler"},
		{"encoding/json", "Unmarshaler"},
		{"sort", "Interface"},
	} {
		pkg, err := r.Import(p.pkg)
		if err != nil {
			t.Fatal(err)
		}
		rc.ifaces = append(rc.ifaces, pkg.Scope().Lookup(p.name).Type().Underlying().(*types.Interface))
	}
	errType := types.Universe.Lookup("error").Type()
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap", types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false))
	rc.ifaces = append(rc.ifaces, errType.Underlying().(*types.Interface), types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete())

	for _, n := range initRoots {
		rc.walk(n)
	}
	rc.run()

	byName := map[string]candidate{}
	for _, c := range candidates {
		byName[c.name] = c
	}
	tests := testFuncs(t)
	for _, e := range reachTestOnly {
		c, ok := byName[e.decl]
		switch {
		case !tests[e.test]:
			t.Errorf("reachTestOnly keeps %s for %s, which no test file declares", e.decl, e.test)
		case !ok:
			t.Errorf("reachTestOnly lists %s, which is no longer declared", e.decl)
		case rc.reached[c.obj]:
			t.Errorf("reachTestOnly lists %s, which a program now reaches: drop the entry", e.decl)
		default:
			rc.reach(c.obj)
		}
	}
	rc.run()

	var unreached []string
	for _, c := range candidates {
		if strings.HasPrefix(c.name, "internal/") && !rc.reached[c.obj] {
			unreached = append(unreached, fmt.Sprintf("%s: %s", fset.Position(c.pos), c.name))
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("%s is reached from no program: delete it, or list it in reachTestOnly with the test that keeps it", u)
	}
	if len(candidates) == 0 {
		t.Fatal("found no declarations; is the test running from the repository root?")
	}
}

// goroutineStarts is every go statement in the repository's non-test
// code, by file and enclosing function. One goroutine at a time uses a
// cluster and everything reachable from it (DESIGN.md §7, "One owner
// per cluster"), so each of these either owns the clusters it builds
// or touches none. A new go statement joins the list with its reason,
// and the race detector runs a suite that starts it.
var goroutineStarts = []string{
	"bench/service.go fleetdStarter",                       // waits for the fleetd process it stops; no cluster
	"cmd/fleetd/main.go run",                               // serves HTTP; campaigns run on the service's workers
	"cmd/fleetrun/main.go run",                             // turns a signal or the timeout into an interrupt; no cluster
	"internal/fleet/run.go execute",                        // a fleet worker: builds, resets and uses its own clusters, hands results back over a channel
	"internal/fleet/shard/launcher.go Exec.Launch",         // waits for a shard process; no cluster
	"internal/fleet/shard/launcher.go InProc.Launch",       // runs a shard through fleet.RunShard, whose workers own the clusters; touches none itself
	"internal/fleet/shard/service.go NewService",           // a campaign worker: supervises shards; no cluster
	"internal/fleet/shard/service.go Service.Drain",        // waits for the campaign workers; no cluster
	"internal/fleet/shard/supervisor.go supervisor.launch", // forwards an attempt's exit to the supervision loop; no cluster
}

// TestGoroutineStarts fails when a go statement is added to or removed
// from the non-test code without goroutineStarts following it.
func TestGoroutineStarts(t *testing.T) {
	_, files := parseRepo(t)
	var got []string
	for _, fl := range files {
		for _, d := range fl.f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil {
				typ := fd.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if id, ok := typ.(*ast.Ident); ok {
					name = id.Name + "." + name
				}
			}
			ast.Inspect(fd, func(n ast.Node) bool {
				if _, ok := n.(*ast.GoStmt); ok {
					got = append(got, fl.path+" "+name)
				}
				return true
			})
		}
	}
	listed := map[string]int{}
	for _, site := range goroutineStarts {
		listed[site]++
	}
	for _, site := range got {
		if listed[site] == 0 {
			t.Errorf("%s: unlisted go statement; a goroutine must own the clusters it builds or touch none (DESIGN.md §7): list it in goroutineStarts with its reason", site)
		}
		listed[site]--
	}
	for site, n := range listed {
		if n > 0 {
			t.Errorf("%s: listed in goroutineStarts, but no go statement is there any more", site)
		}
	}
}

// ownerOnlyPackages are the substrate packages: those on a trial's
// path, and modules, ppsfw and mpicrypt, which E13, E14 and
// examples/facilitator drive from one goroutine. A cluster and
// everything reachable from it has one owner goroutine at a time
// (DESIGN.md §7, "One owner per cluster"), so none of them takes a
// lock: none may import sync, whose Mutex and RWMutex would be the
// only way to declare one. sync/atomic stays allowed: netsim's and
// ubf's exported counters and the cluster clock are atomics.
var ownerOnlyPackages = []string{
	"internal/container",
	"internal/gpu",
	"internal/ids",
	"internal/modules",
	"internal/mpicrypt",
	"internal/netsim",
	"internal/portal",
	"internal/ppsfw",
	"internal/procfs",
	"internal/sched",
	"internal/simos",
	"internal/ubf",
	"internal/vfs",
}

// TestOwnerOnlyPackagesTakeNoLocks fails when the non-test code of an
// ownerOnlyPackages package imports sync.
func TestOwnerOnlyPackagesTakeNoLocks(t *testing.T) {
	_, files := parseRepo(t)
	seen := map[string]bool{}
	for _, fl := range files {
		if !slices.Contains(ownerOnlyPackages, fl.dir) {
			continue
		}
		seen[fl.dir] = true
		for _, spec := range fl.f.Imports {
			if spec.Path.Value == strconv.Quote("sync") {
				t.Errorf("%s imports sync: a package on the trial path takes no lock; its cluster's owner calls it (DESIGN.md §7)", fl.path)
			}
		}
	}
	for _, dir := range ownerOnlyPackages {
		if !seen[dir] {
			t.Errorf("%s: no Go files; is the test running from the repository root?", dir)
		}
	}
}

package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// reachPackages are the packages whose every exported function and
// method must have a caller outside the tests. Code that only its own
// unit tests reach is either a probe in the attack catalogue or it
// goes; a package joins this list once it has been through that sort.
var reachPackages = []string{
	"internal/netsim",
	"internal/portal",
	"internal/ppsfw",
	"internal/ubf",
}

// reachAllowMethods are methods that callers reach through an
// interface, which a by-name scan cannot see.
var reachAllowMethods = map[string]bool{
	"Error":  true,
	"String": true,
	// errors.Is and errors.As reach a typed denial's sentinel through
	// interface{ Unwrap() error }.
	"Unwrap": true,
}

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

// TestExportsReachedOutsideTests parses every non-test Go file in the
// repository (see parseRepo) and fails for each exported function or
// method of a reachPackages package that no such file refers to. A
// package-level function counts as reached when another package
// selects it through an import of its package, or its own package
// names it; a method counts as reached when any file selects a field
// or method of that name. Names are all it sees: a same-named method
// on another type satisfies the check.
func TestExportsReachedOutsideTests(t *testing.T) {
	const modPath = "repro"
	fset, files := parseRepo(t)

	listed := map[string]bool{}
	for _, dir := range reachPackages {
		listed[dir] = true
	}
	type export struct {
		dir, name string
		method    bool
		pos       token.Pos
	}
	var exports []export
	selected := map[string]bool{}  // any x.Name
	qualified := map[string]bool{} // "dir.Name" selected through an import of dir
	local := map[string]bool{}     // "dir.Name" named bare inside dir
	for _, fl := range files {
		imports := map[string]string{} // local import name -> directory
		for _, spec := range fl.f.Imports {
			ip, _ := strconv.Unquote(spec.Path.Value)
			dir, ok := strings.CutPrefix(ip, modPath+"/")
			if !ok {
				continue
			}
			name := path.Base(ip)
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = dir
		}
		notBare := map[*ast.Ident]bool{} // declared or selected names
		for _, d := range fl.f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			notBare[fd.Name] = true
			if listed[fl.dir] && fd.Name.IsExported() {
				exports = append(exports, export{fl.dir, fd.Name.Name, fd.Recv != nil, fd.Name.Pos()})
			}
		}
		ast.Inspect(fl.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selected[n.Sel.Name] = true
				notBare[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[x.Name]; ok {
						qualified[dir+"."+n.Sel.Name] = true
					}
				}
			case *ast.Ident:
				if !notBare[n] {
					local[fl.dir+"."+n.Name] = true
				}
			}
			return true
		})
	}

	var unreached []string
	for _, e := range exports {
		var ok bool
		if e.method {
			ok = reachAllowMethods[e.name] || selected[e.name]
		} else {
			ok = qualified[e.dir+"."+e.name] || local[e.dir+"."+e.name]
		}
		if !ok {
			unreached = append(unreached, fset.Position(e.pos).String()+": "+e.name)
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("%s has no caller outside the tests: make it a catalogue probe or delete it", u)
	}
	if len(exports) == 0 {
		t.Fatal("found no exported functions in reachPackages; is the test running from the repository root?")
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

// ownerOnlyPackages are the substrate packages on a trial's path. A
// cluster and everything reachable from it has one owner goroutine at
// a time (DESIGN.md §7, "One owner per cluster"), so none of them takes
// a lock: none may import sync, whose Mutex and RWMutex would be the
// only way to declare one. sync/atomic stays allowed: netsim's and
// ubf's exported counters and the cluster clock are atomics.
var ownerOnlyPackages = []string{
	"internal/container",
	"internal/gpu",
	"internal/ids",
	"internal/netsim",
	"internal/portal",
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

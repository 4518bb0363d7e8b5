package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
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
}

// TestExportsReachedOutsideTests parses every non-test Go file in the
// repository (the bench module included, since it drives this one)
// and fails for each exported function or method of a reachPackages
// package that no such file refers to. A package-level function counts
// as reached when another package selects it through an import of its
// package, or its own package names it; a method counts as reached
// when any file selects a field or method of that name. Names are all
// it sees: a same-named method on another type satisfies the check.
func TestExportsReachedOutsideTests(t *testing.T) {
	const modPath = "repro"
	fset := token.NewFileSet()
	type file struct {
		dir string // slash-separated, relative to the repository root
		f   *ast.File
	}
	var files []file
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
		files = append(files, file{filepath.ToSlash(filepath.Dir(p)), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

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

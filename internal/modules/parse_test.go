package modules

import (
	"errors"
	"testing"

	"repro/internal/ids"
	"repro/internal/vfs"
)

const gccModulefile = `#%Module
module-whatis "GNU compiler collection"
prepend-path PATH /opt/gcc/12.3/bin
append-path  MANPATH /opt/gcc/12.3/man
setenv       CC /opt/gcc/12.3/bin/gcc
`

func TestParseModulefile(t *testing.T) {
	m, err := ParseModulefile("gcc", "12.3", gccModulefile)
	if err != nil {
		t.Fatal(err)
	}
	if m.ID() != "gcc/12.3" || len(m.Ops) != 3 {
		t.Fatalf("parsed %+v", m)
	}
	if m.Ops[0].Kind != PrependPath || m.Ops[0].Var != "PATH" {
		t.Errorf("op0 = %+v", m.Ops[0])
	}
	if m.Ops[1].Kind != AppendPath || m.Ops[2].Kind != SetEnv {
		t.Errorf("op kinds = %v %v", m.Ops[1].Kind, m.Ops[2].Kind)
	}
}

func TestParsePrereqConflictAndComments(t *testing.T) {
	text := `#%Module
# site notes here
prereq gcc
conflict intel-mpi

prepend-path PATH /opt/openmpi/bin
`
	m, err := ParseModulefile("openmpi", "4.1.6", text)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Requires) != 1 || m.Requires[0] != "gcc" {
		t.Errorf("requires = %v", m.Requires)
	}
	if len(m.Conflicts) != 1 || m.Conflicts[0] != "intel-mpi" {
		t.Errorf("conflicts = %v", m.Conflicts)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		text string
		want error
	}{
		{"", ErrNoMagic},
		{"prepend-path PATH /x", ErrNoMagic},
		{"#%Module\nbogus-verb x", ErrBadModulefile},
		{"#%Module\nprereq", ErrBadModulefile},
		{"#%Module\nsetenv ONLYVAR", ErrBadModulefile},
		{"#%Module\nprepend-path PATH /a /b", ErrBadModulefile},
	}
	for _, tc := range cases {
		if _, err := ParseModulefile("x", "1", tc.text); !errors.Is(err, tc.want) {
			t.Errorf("ParseModulefile(%q) err = %v, want %v", tc.text, err, tc.want)
		}
	}
}

// buildTree writes a modulefile tree onto a vfs and returns the FS.
func buildTree(t *testing.T) (*vfs.FS, *ids.Registry, vfs.Context) {
	t.Helper()
	reg := ids.NewRegistry()
	user, _ := reg.AddUser("alice")
	fs := vfs.New("shared", vfs.Policy{}, reg)
	root := vfs.Context{Cred: ids.RootCred()}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(fs.MkdirAll(root, "/proj/modules/gcc", 0o755))
	must(fs.MkdirAll(root, "/proj/modules/openmpi", 0o755))
	must(fs.WriteFile(root, "/proj/modules/gcc/12.3", []byte(gccModulefile), 0o644))
	must(fs.WriteFile(root, "/proj/modules/gcc/13.1", []byte("#%Module\nsetenv CC gcc13\n"), 0o644))
	must(fs.WriteFile(root, "/proj/modules/gcc/.default", []byte("13.1\n"), 0o644))
	must(fs.WriteFile(root, "/proj/modules/openmpi/4.1.6", []byte("#%Module\nprereq gcc\nsetenv MPI_HOME /opt/openmpi\n"), 0o644))
	cred, _ := reg.LoginCredential(user.UID)
	return fs, reg, vfs.Ctx(cred)
}

func TestLoadTree(t *testing.T) {
	fs, _, ctx := buildTree(t)
	repo, err := LoadTree(fs, ctx, "/proj/modules")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(repo.modules); got != 3 {
		t.Fatalf("LoadTree registered %d modules, want 3", got)
	}
	// .default honored.
	m, err := repo.Resolve("gcc")
	if err != nil || m.Version != "13.1" {
		t.Errorf("default gcc = %v, %v", m, err)
	}
	// End-to-end: load from the parsed repo.
	s := NewSession(repo, map[string]string{"PATH": "/usr/bin"})
	if err := s.Load("gcc/12.3"); err != nil {
		t.Fatal(err)
	}
	if err := s.Load("openmpi"); err != nil {
		t.Fatal(err)
	}
	if got := s.Getenv("MPI_HOME"); got != "/opt/openmpi" {
		t.Errorf("MPI_HOME = %q", got)
	}
}

func TestLoadTreeSkipsUnreadable(t *testing.T) {
	fs, reg, ctx := buildTree(t)
	root := vfs.Context{Cred: ids.RootCred()}
	// A project-restricted module tree alice cannot read.
	lead, _ := reg.AddUser("lead")
	g, err := reg.AddProjectGroup("secretproj", lead.UID)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.CreateProjectDir("/proj/modules/secret-tool", g); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(root, "/proj/modules/secret-tool/1.0", []byte("#%Module\nsetenv SECRET 1\n"), 0o640); err != nil {
		t.Fatal(err)
	}
	repo, err := LoadTree(fs, ctx, "/proj/modules")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.Resolve("secret-tool"); !errors.Is(err, ErrNoModule) {
		t.Errorf("restricted module visible to non-member: %v", err)
	}
	// A member of the project group sees it.
	leadCred, _ := reg.LoginCredential(lead.UID)
	repoLead, err := LoadTree(fs, vfs.Ctx(leadCred), "/proj/modules")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repoLead.Resolve("secret-tool/1.0"); err != nil {
		t.Errorf("member cannot see project module: %v", err)
	}
}

func TestLoadTreeBadFile(t *testing.T) {
	fs, _, ctx := buildTree(t)
	root := vfs.Context{Cred: ids.RootCred()}
	if err := fs.WriteFile(root, "/proj/modules/gcc/bad", []byte("no magic"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTree(fs, ctx, "/proj/modules"); !errors.Is(err, ErrNoMagic) {
		t.Errorf("bad tree err = %v", err)
	}
}

func TestLoadTreeMissingRoot(t *testing.T) {
	fs, _, ctx := buildTree(t)
	if _, err := LoadTree(fs, ctx, "/nope"); err == nil {
		t.Errorf("missing root succeeded")
	}
}

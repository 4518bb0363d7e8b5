package modules

import (
	"errors"
	"testing"
)

func testRepo() *Repo {
	r := NewRepo()
	r.Add(&Module{
		Name: "gcc", Version: "12.3",
		Ops: []Op{
			{PrependPath, "PATH", "/opt/gcc/12.3/bin"},
			{SetEnv, "CC", "/opt/gcc/12.3/bin/gcc"},
		},
	})
	r.Add(&Module{
		Name: "gcc", Version: "13.1",
		Ops: []Op{
			{PrependPath, "PATH", "/opt/gcc/13.1/bin"},
			{SetEnv, "CC", "/opt/gcc/13.1/bin/gcc"},
		},
	})
	r.Add(&Module{
		Name: "openmpi", Version: "4.1.6",
		Requires: []string{"gcc"},
		Ops: []Op{
			{PrependPath, "PATH", "/opt/openmpi/bin"},
			{PrependPath, "LD_LIBRARY_PATH", "/opt/openmpi/lib"},
			{SetEnv, "MPI_HOME", "/opt/openmpi"},
		},
	})
	r.Add(&Module{
		Name: "intel-mpi", Version: "2021",
		Conflicts: []string{"openmpi"},
		Ops:       []Op{{SetEnv, "MPI_HOME", "/opt/intel"}},
	})
	return r
}

func TestLoadSetsEnvironment(t *testing.T) {
	s := NewSession(testRepo(), map[string]string{"PATH": "/usr/bin"})
	if err := s.Load("gcc/12.3"); err != nil {
		t.Fatal(err)
	}
	if got := s.Getenv("PATH"); got != "/opt/gcc/12.3/bin:/usr/bin" {
		t.Errorf("PATH = %q", got)
	}
	if got := s.Getenv("CC"); got != "/opt/gcc/12.3/bin/gcc" {
		t.Errorf("CC = %q", got)
	}
}

func TestDefaultVersionResolution(t *testing.T) {
	r := testRepo()
	// First added becomes default.
	m, err := r.Resolve("gcc")
	if err != nil || m.Version != "12.3" {
		t.Fatalf("default = %v, %v", m, err)
	}
	if err := r.SetDefault("gcc", "13.1"); err != nil {
		t.Fatal(err)
	}
	m, _ = r.Resolve("gcc")
	if m.Version != "13.1" {
		t.Errorf("default after SetDefault = %s", m.Version)
	}
	if err := r.SetDefault("gcc", "99"); !errors.Is(err, ErrNoModule) {
		t.Errorf("bogus SetDefault err = %v", err)
	}
	if _, err := r.Resolve("ghost"); !errors.Is(err, ErrNoModule) {
		t.Errorf("resolve ghost err = %v", err)
	}
	if _, err := r.Resolve("ghost/1"); !errors.Is(err, ErrNoModule) {
		t.Errorf("resolve ghost/1 err = %v", err)
	}
}

func TestDependencyEnforced(t *testing.T) {
	s := NewSession(testRepo(), nil)
	if err := s.Load("openmpi"); !errors.Is(err, ErrDependency) {
		t.Errorf("load without dep err = %v", err)
	}
	if err := s.Load("gcc"); err != nil {
		t.Fatal(err)
	}
	if err := s.Load("openmpi"); err != nil {
		t.Fatalf("load with dep: %v", err)
	}
}

func TestConflictEnforced(t *testing.T) {
	s := NewSession(testRepo(), nil)
	if err := s.Load("gcc"); err != nil {
		t.Fatal(err)
	}
	if err := s.Load("openmpi"); err != nil {
		t.Fatal(err)
	}
	if err := s.Load("intel-mpi"); !errors.Is(err, ErrConflict) {
		t.Errorf("conflicting load err = %v", err)
	}
}

func TestDoubleLoadRejected(t *testing.T) {
	s := NewSession(testRepo(), nil)
	if err := s.Load("gcc/12.3"); err != nil {
		t.Fatal(err)
	}
	if err := s.Load("gcc/13.1"); !errors.Is(err, ErrLoaded) {
		t.Errorf("second version load err = %v", err)
	}
}

func TestAppendPath(t *testing.T) {
	r := NewRepo()
	r.Add(&Module{Name: "man", Version: "1", Ops: []Op{{AppendPath, "MANPATH", "/opt/man"}}})
	s := NewSession(r, map[string]string{"MANPATH": "/usr/share/man"})
	_ = s.Load("man")
	if got := s.Getenv("MANPATH"); got != "/usr/share/man:/opt/man" {
		t.Errorf("MANPATH = %q", got)
	}
	// Append to an unset var.
	s2 := NewSession(r, nil)
	_ = s2.Load("man")
	if got := s2.Getenv("MANPATH"); got != "/opt/man" {
		t.Errorf("MANPATH fresh = %q", got)
	}
}

func TestOpKindString(t *testing.T) {
	if PrependPath.String() != "prepend-path" || AppendPath.String() != "append-path" || SetEnv.String() != "setenv" || OpKind(9).String() != "?" {
		t.Error("OpKind.String broken")
	}
}

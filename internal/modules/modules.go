// Package modules implements Linux environment modules (paper §IV-G,
// refs [42][43]): the mechanism the paper recommends over container
// sprawl for sharing software installations — "shared installations
// of software applications are better managed by providing installed
// applications in shared group areas and enabling users to
// dynamically configure their environment to use the applications
// with Linux environment modules."
//
// A modulefile describes prepend/append/set operations on environment
// variables plus dependencies on other modules. Loading mutates a
// per-session Env. The separation tie-in: modulefiles live on the
// shared filesystem under the same smask/project-group rules as
// everything else, so *who can use a module* is decided by the vfs
// layer, not by this package.
//
// Nothing here takes a lock: a Repo and its Sessions have one owner
// goroutine, like a cluster (DESIGN.md §7, "One owner per cluster").
package modules

import (
	"errors"
	"fmt"
	"strings"
)

// Op is one environment operation in a modulefile.
type Op struct {
	Kind  OpKind
	Var   string
	Value string
}

// OpKind enumerates modulefile operations.
type OpKind int

// Operations.
const (
	PrependPath OpKind = iota // prepend to a :-separated list var
	AppendPath                // append to a :-separated list var
	SetEnv                    // set a scalar var
)

func (k OpKind) String() string {
	switch k {
	case PrependPath:
		return "prepend-path"
	case AppendPath:
		return "append-path"
	case SetEnv:
		return "setenv"
	default:
		return "?"
	}
}

// Module is a named, versioned software environment.
type Module struct {
	Name      string   // e.g. "openmpi"
	Version   string   // e.g. "4.1.6"
	Requires  []string // module names that must be loaded first
	Conflicts []string // module names that must NOT be loaded
	Ops       []Op
}

// ID returns name/version.
func (m *Module) ID() string { return m.Name + "/" + m.Version }

// Repo is the site modulefile tree (one per cluster, maintained by
// support staff via smask_relax).
type Repo struct {
	modules  map[string]*Module // id -> module
	defaults map[string]string  // name -> default version
}

// Repo/session errors.
var (
	ErrNoModule   = errors.New("modules: no such module")
	ErrConflict   = errors.New("modules: conflicting module loaded")
	ErrDependency = errors.New("modules: unsatisfied dependency")
	ErrLoaded     = errors.New("modules: already loaded")
)

// NewRepo creates an empty repository.
func NewRepo() *Repo {
	return &Repo{modules: make(map[string]*Module), defaults: make(map[string]string)}
}

// Add registers a module; the first version added for a name becomes
// the default (override with SetDefault).
func (r *Repo) Add(m *Module) {
	r.modules[m.ID()] = m
	if _, ok := r.defaults[m.Name]; !ok {
		r.defaults[m.Name] = m.Version
	}
}

// SetDefault picks the version `module load name` resolves to.
func (r *Repo) SetDefault(name, version string) error {
	if _, ok := r.modules[name+"/"+version]; !ok {
		return fmt.Errorf("%w: %s/%s", ErrNoModule, name, version)
	}
	r.defaults[name] = version
	return nil
}

// Resolve finds a module by "name" (default version) or
// "name/version".
func (r *Repo) Resolve(spec string) (*Module, error) {
	if strings.Contains(spec, "/") {
		m, ok := r.modules[spec]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNoModule, spec)
		}
		return m, nil
	}
	v, ok := r.defaults[spec]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoModule, spec)
	}
	return r.modules[spec+"/"+v], nil
}

// Session is one user shell's module state.
type Session struct {
	repo   *Repo
	env    map[string]string
	loaded []string // load order
}

// NewSession starts with a copy of base environment variables.
func NewSession(repo *Repo, base map[string]string) *Session {
	env := make(map[string]string, len(base))
	for k, v := range base {
		env[k] = v
	}
	return &Session{repo: repo, env: env}
}

// Getenv reads a variable.
func (s *Session) Getenv(key string) string {
	return s.env[key]
}

func (s *Session) isLoaded(name string) bool {
	for _, id := range s.loaded {
		if id == name || strings.HasPrefix(id, name+"/") {
			return true
		}
	}
	return false
}

// Load resolves and applies a module, checking dependencies and
// conflicts (like `module load`).
func (s *Session) Load(spec string) error {
	m, err := s.repo.Resolve(spec)
	if err != nil {
		return err
	}
	if s.isLoaded(m.Name) {
		return fmt.Errorf("%w: %s", ErrLoaded, m.ID())
	}
	for _, dep := range m.Requires {
		if !s.isLoaded(dep) {
			return fmt.Errorf("%w: %s requires %s", ErrDependency, m.ID(), dep)
		}
	}
	for _, c := range m.Conflicts {
		if s.isLoaded(c) {
			return fmt.Errorf("%w: %s conflicts with %s", ErrConflict, m.ID(), c)
		}
	}
	for _, op := range m.Ops {
		prev, had := s.env[op.Var]
		switch op.Kind {
		case SetEnv:
			s.env[op.Var] = op.Value
		case PrependPath:
			if had && prev != "" {
				s.env[op.Var] = op.Value + ":" + prev
			} else {
				s.env[op.Var] = op.Value
			}
		case AppendPath:
			if had && prev != "" {
				s.env[op.Var] = prev + ":" + op.Value
			} else {
				s.env[op.Var] = op.Value
			}
		}
	}
	s.loaded = append(s.loaded, m.ID())
	return nil
}

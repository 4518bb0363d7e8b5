package vfs

import (
	"fmt"
	"strings"
)

// Namespace is a node's mount table: it routes absolute paths to the
// FS mounted at the longest matching prefix, the way a compute node
// sees the shared Lustre filesystem at /home and /scratch and its own
// local disk at /tmp. All paths handed to the mounted FS are kept
// absolute and mount-relative. It is not safe for concurrent use; the
// cluster's owner calls it (DESIGN.md §7, "One owner per cluster").
type Namespace struct {
	mounts map[string]*FS // mount point -> fs
}

// NewNamespace returns an empty mount table.
func NewNamespace() *Namespace {
	return &Namespace{mounts: make(map[string]*FS)}
}

// Mount attaches fs at the given absolute mount point. Mounting at
// "/" provides the root filesystem.
func (ns *Namespace) Mount(point string, fs *FS) error {
	if !strings.HasPrefix(point, "/") {
		return fmt.Errorf("%w: mount point %q", ErrInvalid, point)
	}
	ns.mounts[strings.TrimRight(point, "/")] = fs
	return nil
}

// Resolve returns the FS responsible for path. The path is forwarded
// unchanged (mounted filesystems carry their full tree, e.g. the
// node-local FS contains /tmp and /dev/shm as directories), which
// keeps one local FS usable behind several mount points without the
// two aliasing each other.
func (ns *Namespace) Resolve(path string) (*FS, string, error) {
	if !strings.HasPrefix(path, "/") {
		return nil, "", fmt.Errorf("%w: path %q not absolute", ErrInvalid, path)
	}
	best := ""
	found := false
	for point := range ns.mounts {
		p := point
		if p == "" {
			p = "/"
		}
		match := p == "/" || path == point || strings.HasPrefix(path, point+"/")
		if match && (!found || len(point) > len(best)) {
			best = point
			found = true
		}
	}
	if !found {
		return nil, "", &PathError{Op: "no filesystem mounted for", Path: path, Err: ErrNotExist}
	}
	return ns.mounts[best], path, nil
}

// Convenience pass-throughs so callers can operate on namespace paths
// without resolving by hand. Each resolves the mount, rewrites the
// path, and forwards.

// WriteFile forwards to the responsible mount.
func (ns *Namespace) WriteFile(ctx Context, path string, data []byte, mode uint32) error {
	fs, rel, err := ns.Resolve(path)
	if err != nil {
		return err
	}
	return fs.WriteFile(ctx, rel, data, mode)
}

// ReadFile forwards to the responsible mount.
func (ns *Namespace) ReadFile(ctx Context, path string) ([]byte, error) {
	fs, rel, err := ns.Resolve(path)
	if err != nil {
		return nil, err
	}
	return fs.ReadFile(ctx, rel)
}

// ReadDir forwards to the responsible mount.
func (ns *Namespace) ReadDir(ctx Context, path string) ([]string, error) {
	fs, rel, err := ns.Resolve(path)
	if err != nil {
		return nil, err
	}
	return fs.ReadDir(ctx, rel)
}

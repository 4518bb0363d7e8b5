package vfs

import (
	"strconv"

	"repro/internal/ids"
)

// PathError is a refused or failed operation on a path, in the shape
// of os.PathError: Err is the sentinel (ErrPermission, ErrNotExist,
// ...), Op the operation the text names ("" for none) and Path the
// path it names. The text is built only when Error is called, and it
// reads "<sentinel>: <op> <path>", the search path quoted (DESIGN.md
// §7, the error-text contract).
type PathError struct {
	Op   string
	Path string
	Err  error
}

func (e *PathError) Error() string {
	switch e.Op {
	case "":
		return e.Err.Error() + ": " + e.Path
	case "search":
		return e.Err.Error() + ": search " + strconv.Quote(e.Path)
	}
	return e.Err.Error() + ": " + e.Op + " " + e.Path
}

func (e *PathError) Unwrap() error { return e.Err }

// SymlinkError is a symlink the protected_symlinks rule refused to
// follow: Path is the link, Owner the link's owner.
type SymlinkError struct {
	Path  string
	Owner ids.UID
}

func (e *SymlinkError) Error() string {
	return ErrProtectedSymlink.Error() + ": " + e.Path + " (link owner " + strconv.Itoa(int(e.Owner)) + ")"
}

func (e *SymlinkError) Unwrap() error { return ErrProtectedSymlink }

// ACLError is an ACL grant the group-membership restriction refused
// (§IV-C). A named-user grant (User set) names the caller and UID; a
// group grant names GID, and the caller unless the group is another
// user's private group (Private set).
type ACLError struct {
	Caller  ids.UID
	UID     ids.UID
	GID     ids.GID
	User    bool
	Private bool
}

func (e *ACLError) Error() string {
	prefix := ErrACLDenied.Error() + ": "
	switch {
	case e.User:
		return prefix + "uid " + strconv.Itoa(int(e.Caller)) + " and uid " + strconv.Itoa(int(e.UID)) + " share no project group"
	case e.Private:
		return prefix + "private group " + strconv.Itoa(int(e.GID))
	}
	return prefix + "gid " + strconv.Itoa(int(e.GID)) + " (caller uid " + strconv.Itoa(int(e.Caller)) + " not a member)"
}

func (e *ACLError) Unwrap() error { return ErrACLDenied }

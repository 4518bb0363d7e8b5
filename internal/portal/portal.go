// Package portal implements the web portal/gateway substrate
// (paper §IV-E): LLSC forwards web connections from applications
// running on compute nodes (Jupyter, TensorBoard, ...) to the user's
// browser through an authenticated HPC portal, instead of ad-hoc ssh
// port forwarding.
//
// The separation property reproduced here: "User authentication is
// required to connect to the HPC Portal and UBF connection rules are
// enforced, so that the entire connection path is authenticated and
// authorized" — the portal forwards with the *authenticated user's*
// identity, so the UBF verdict between the portal host and the
// compute node is the user's own, and apps can run "on any compute
// node in any partition".
package portal

import (
	"errors"
	"fmt"
	"maps"
	"strconv"

	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/slab"
)

// Portal errors (HTTP-status-like).
var (
	ErrUnauthenticated = errors.New("portal: 401 authentication required")
	ErrForbidden       = errors.New("portal: 403 forbidden")
	ErrNoRoute         = errors.New("portal: 404 no such application route")
	ErrBadGateway      = errors.New("portal: 502 upstream connection failed")
	ErrBadCredentials  = errors.New("portal: invalid credentials")
)

// Route is one registered web application.
type Route struct {
	Path  string // e.g. "/jupyter/alice-1"
	Owner ids.UID
	Node  string
	Port  int
}

// Portal is the gateway daemon. It runs on a dedicated host of the
// simulated network and proxies to compute nodes over that network,
// so every forwarded hop is subject to whatever firewall the cluster
// has installed. It is not safe for concurrent use; the cluster's
// owner calls it (DESIGN.md §7, "One owner per cluster").
type Portal struct {
	host *netsim.Host

	secrets  map[ids.UID]string // password store (the site SSO)
	sessions map[string]ids.Credential
	routes   map[string]*Route
	nextTok  int
	tunnel   bool // legacy forwarding: hops run as the route owner

	marked map[ids.UID]string // the enrolments MarkPristine recorded

	// tokens memoizes the session token strings: Reset restarts the
	// counter, so a pooled trial's logins hand out the strings an
	// earlier trial formatted. routeSlab, gids and bytes hold the
	// routes, the session credentials' groups and the forwarded
	// responses, and Reset rewinds them, so everything the portal
	// hands out is valid until the next Reset. All start empty, and
	// until the first Reset they hand out heap storage (slab.Alloc).
	tokens    map[token]string
	routeSlab slab.Slab[Route]
	gids      slab.Slab[ids.GID]
	bytes     slab.Slab[byte]
}

// token is a session token's (user, login counter) pair.
type token struct {
	uid ids.UID
	n   int
}

// New creates a portal bound to the given gateway host.
func New(host *netsim.Host) *Portal {
	return &Portal{
		host:     host,
		secrets:  make(map[ids.UID]string),
		sessions: make(map[string]ids.Credential),
		routes:   make(map[string]*Route),
	}
}

// SetTunnelMode switches between the paper's identity-preserving
// forwarding (off, the default: each hop is dialed as the
// AUTHENTICATED user, so the UBF on the compute node applies the end
// user's own verdict) and pre-portal ad-hoc tunnel semantics (on:
// hops are dialed as the ROUTE OWNER, the way a user-launched ssh
// tunnel terminates — any authenticated portal user then reaches any
// registered app, because the firewall only ever sees the owner's
// identity). Tunnel mode is the §IV-E ablation.
func (p *Portal) SetTunnelMode(on bool) {
	p.tunnel = on
}

// MarkPristine records the current enrolments as the ones Reset
// restores: a cluster provisioned before its mark keeps its users'
// portal passwords across trials.
func (p *Portal) MarkPristine() {
	p.marked = nil // a fresh cluster's mark has no enrolment to copy
	if len(p.secrets) > 0 {
		p.marked = maps.Clone(p.secrets)
	}
}

// Reset rewinds the portal to its state at MarkPristine (or to its
// freshly-constructed state without a mark): enrolments return to the
// marked ones, sessions and routes are dropped and the session token
// counter restarts, so a reset portal hands out the same token strings
// a fresh one would. The forwarding mode (SetTunnelMode) survives — it
// is cluster-assembly configuration, set from Config at construction,
// not per-trial state.
func (p *Portal) Reset() {
	clear(p.secrets)
	maps.Copy(p.secrets, p.marked)
	clear(p.sessions)
	clear(p.routes)
	p.nextTok = 0
	p.routeSlab.Reset()
	p.gids.Reset()
	p.bytes.Reset()
}

// Enroll registers a user's portal password (site SSO enrolment).
func (p *Portal) Enroll(uid ids.UID, password string) {
	p.secrets[uid] = password
}

// Login authenticates and returns a session token.
func (p *Portal) Login(cred ids.Credential, password string) (string, error) {
	want, ok := p.secrets[cred.UID]
	if !ok || want != password {
		return "", fmt.Errorf("%w: uid %d", ErrBadCredentials, cred.UID)
	}
	p.nextTok++
	key := token{cred.UID, p.nextTok}
	tok, ok := p.tokens[key]
	if !ok {
		if p.tokens == nil {
			p.tokens = make(map[token]string)
		}
		tok = fmt.Sprintf("tok-%d-%d", cred.UID, p.nextTok)
		p.tokens[key] = tok
	}
	cred.Groups = p.gids.Clone(cred.Groups)
	p.sessions[tok] = cred
	return tok, nil
}

// Register adds an application route. The owner is whoever launched
// the web app; routes are per-user and may point at ANY compute node
// (the paper's "not restricted to a small partition"). A path held by
// another user can be re-pointed only by root: otherwise any user
// could hijack someone else's /jupyter/<name>.
func (p *Portal) Register(owner ids.Credential, path, node string, port int) (*Route, error) {
	if old, ok := p.routes[path]; ok && old.Owner != owner.UID && !owner.IsRoot() {
		return nil, fmt.Errorf("%w: %s", ErrForbidden, path)
	}
	r := &p.routeSlab.Alloc(1)[0]
	*r = Route{Path: path, Owner: owner.UID, Node: node, Port: port}
	p.routes[path] = r
	return r, nil
}

// ForwardError is a request Forward refused or could not deliver, in
// the shape of os.PathError: Err is the sentinel (ErrForbidden when the
// UBF dropped the hop, ErrBadGateway, ErrNoRoute), Path the route, UID
// the session user and Cause the network error behind a failed hop.
// The text is built only when Error is called.
type ForwardError struct {
	Path  string
	UID   ids.UID
	Err   error
	Cause error
}

func (e *ForwardError) Error() string {
	switch {
	case e.Cause == nil:
		return e.Err.Error() + ": " + e.Path
	case e.Err == ErrForbidden:
		return e.Err.Error() + ": UBF denied " + e.Path + " for uid " + strconv.Itoa(int(e.UID)) + ": " + e.Cause.Error()
	}
	return e.Err.Error() + ": " + e.Cause.Error()
}

func (e *ForwardError) Unwrap() error { return e.Err }

// Forward handles one authenticated request: resolve the session,
// resolve the route, and proxy to the compute node *as the
// authenticated user*. The connection is made over the simulated
// network, so the UBF hook on the compute node applies its usual
// rule: if the session user does not own (or share a group with) the
// listening app, the hop is dropped and the portal returns 502/403.
func (p *Portal) Forward(token, path string, payload []byte) ([]byte, error) {
	cred, authed := p.sessions[token]
	r, routed := p.routes[path]
	if !authed {
		return nil, ErrUnauthenticated
	}
	if !routed {
		return nil, &ForwardError{Path: path, Err: ErrNoRoute}
	}
	if p.tunnel {
		// Legacy tunnel semantics: the hop terminates as the route
		// owner, whoever asked for it (see SetTunnelMode).
		cred = ids.Credential{UID: r.Owner}
	}
	conn, err := p.host.Dial(cred, netsim.TCP, r.Node, r.Port)
	if err != nil {
		if errors.Is(err, netsim.ErrConnDropped) {
			return nil, &ForwardError{Path: path, UID: cred.UID, Err: ErrForbidden, Cause: err}
		}
		return nil, &ForwardError{Path: path, UID: cred.UID, Err: ErrBadGateway, Cause: err}
	}
	defer conn.Close()
	if err := conn.Send(payload); err != nil {
		return nil, &ForwardError{Path: path, UID: cred.UID, Err: ErrBadGateway, Cause: err}
	}
	// The app echoes a response in this simulation; a real app would
	// be driven by its own handler loop (see AppServer).
	return p.response(path, r), nil
}

// response is the echoed reply "200 OK <path> via <node>:<port>",
// copied into the byte slab.
func (p *Portal) response(path string, r *Route) []byte {
	var buf [64]byte
	b := append(buf[:0], "200 OK "...)
	b = append(b, path...)
	b = append(b, " via "...)
	b = append(b, r.Node...)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(r.Port), 10)
	return p.bytes.Clone(b)
}

// AppServer is a minimal web application (a Jupyter stand-in) bound
// on a compute node.
type AppServer struct {
	Listener *netsim.Listener
}

// Serve launches an app server for cred on host:port. Like the
// listener it wraps, the server is valid until the network's next
// Reset.
func Serve(host *netsim.Host, cred ids.Credential, port int) (AppServer, error) {
	l, err := host.Listen(cred, netsim.TCP, port)
	if err != nil {
		return AppServer{}, err
	}
	return AppServer{Listener: l}, nil
}

// Drain consumes all pending connections' payloads and returns how
// many requests arrived.
func (a AppServer) Drain() int {
	n := 0
	for {
		c, ok := a.Listener.Accept()
		if !ok {
			return n
		}
		for {
			if _, ok := c.Recv(); !ok {
				break
			}
			n++
		}
	}
}

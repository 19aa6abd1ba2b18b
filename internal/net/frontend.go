package net

import (
	"bufio"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/plan"
	"repro/internal/server"
	"repro/internal/timely"
	"repro/internal/wal"
)

// Frontend exposes a server.Server over the wire protocol: remote clients
// install named queries as relational plans and uninstall them, send source
// updates, seal epochs, and subscribe to per-epoch result deltas. Every
// installed query's result is an arrangement, and a subscription is an
// import of it (subscribe.go). All methods are also callable in-process (the
// CLI serve path and tests drive them directly).
type Frontend struct {
	srv *server.Server
	opt FrontendOptions // SubscriberMaxLag has its default applied

	mu       sync.Mutex
	batchers map[string]*server.Batcher[uint64, uint64] // by source name
	queries  map[string]*netQuery
	conns    map[net.Conn]struct{}
	ln       net.Listener
	closed   bool

	// The shared sub-plan registry: every stateful sub-plan a query installs
	// becomes a refcounted derived arrangement keyed by its canonical form
	// (plan.Node.Key), so a second query containing the same sub-plan — from
	// any client, in any surface syntax — imports the existing arrangement
	// instead of building its own. instMu serializes installs and reference
	// releases: concurrent installs of the same sub-plan must observe each
	// other, not race to build it twice. Draining a released part waits for
	// its dataflow and runs after instMu is let go.
	instMu      sync.Mutex
	shared      map[string]*sharedEntry
	sharedOrder []*sharedEntry // install order: children strictly before parents
	installs    int            // derived arrangements built
	hits        int            // sub-plan resolutions served from the registry

	imports atomic.Uint64 // subscription imports installed, naming each
	// drainHook, when set, runs before each released part drains (a
	// test-only seam).
	drainHook func()

	wg sync.WaitGroup // accept loop, connection handlers
}

// sharedEntry is one installed shared sub-plan: a derived arrangement plus
// the number of installed queries currently resolving through it.
type sharedEntry struct {
	key  string
	d    *server.Derived[uint64, uint64]
	refs int
}

// FrontendOptions tunes the frontend's ingestion control loop and its
// subscriber lag policy.
type FrontendOptions struct {
	// SubscriberMaxLag bounds the live result deltas a single subscriber's
	// feed may hold undelivered. A subscriber past the bound is reset: its
	// feed is dropped, and its next event is a streamResync carrying the
	// consolidated collection from a fresh import. Zero means the default
	// (1<<20 deltas); negative disables the bound.
	SubscriberMaxLag int
	// BatchMaxLag is the adaptive batcher's bound on sealed-but-incomplete
	// epochs per registered source (server.BatcherOptions.MaxLag). Zero
	// means the batcher's default.
	BatchMaxLag uint64
}

// DefaultSubscriberMaxLag is the per-subscriber backlog bound applied when
// FrontendOptions.SubscriberMaxLag is zero.
const DefaultSubscriberMaxLag = 1 << 20

// netQuery is one query installed through the frontend: the arrangement of
// its result and the subscriptions importing it. A stateful root's result is
// its registry part; any other root gets an arrangement of its own (own),
// outside the registry.
type netQuery struct {
	name, text string
	root       *server.Derived[uint64, uint64]
	own        *server.Derived[uint64, uint64] // nil when root is a registry part
	held       []*sharedEntry                  // registry references released at uninstall

	mu     sync.Mutex
	subs   map[*subscription]struct{}
	closed bool // uninstalled: no subscription attaches any more
}

// close ends every subscription of the query at the epochs its import had
// completed and uninstalls the imports: after it, nothing reads the root.
func (nq *netQuery) close() {
	nq.mu.Lock()
	defer nq.mu.Unlock()
	nq.closed = true
	for s := range nq.subs {
		s.stop()
		s.uninstallLocked()
	}
}

// ErrFrontendClosed reports an operation against a closed frontend.
var ErrFrontendClosed = errors.New("net: frontend closed")

// NewFrontend wraps a server with default options. Register sources before
// serving.
func NewFrontend(srv *server.Server) *Frontend {
	return NewFrontendOpts(srv, FrontendOptions{})
}

// NewFrontendOpts wraps a server with explicit lag-control options.
func NewFrontendOpts(srv *server.Server, opt FrontendOptions) *Frontend {
	if opt.SubscriberMaxLag == 0 {
		opt.SubscriberMaxLag = DefaultSubscriberMaxLag
	}
	return &Frontend{
		srv:      srv,
		opt:      opt,
		batchers: make(map[string]*server.Batcher[uint64, uint64]),
		queries:  make(map[string]*netQuery),
		conns:    make(map[net.Conn]struct{}),
		shared:   make(map[string]*sharedEntry),
	}
}

// RegisterSource makes a server source visible to installed plans and the
// update/advance requests under its registered name. The frontend wraps the
// source in an adaptive batcher: remote advances seal logical epochs, and
// the batcher decides when to physically seal, coalescing under probe lag
// (see server.Batcher). The frontend owns the source's epoch clock from here
// on — drive updates and advances through the frontend, not the source.
func (fe *Frontend) RegisterSource(src *server.Source[uint64, uint64]) error {
	fe.mu.Lock()
	defer fe.mu.Unlock()
	if fe.closed {
		return ErrFrontendClosed
	}
	if _, dup := fe.batchers[src.Name()]; dup {
		return fmt.Errorf("net: source %q already registered", src.Name())
	}
	fe.batchers[src.Name()] = server.NewBatcher(src, server.BatcherOptions{MaxLag: fe.opt.BatchMaxLag})
	return nil
}

// InstallPlan installs a relational plan under the given name: its stateful
// sub-plans are materialized as shared derived arrangements (reusing any
// already installed by other queries), and a root that is not one of them
// gets an arrangement of its own, built over snapshot imports of those.
// Subscribers import the result arrangement. The text is only for listings.
func (fe *Frontend) InstallPlan(name, text string, root *plan.Node) error {
	if name == "" {
		return fmt.Errorf("net: query name must be non-empty")
	}
	if err := root.Validate(); err != nil {
		return err
	}
	fe.instMu.Lock()
	nq, err := fe.installLocked(name, text, root)
	fe.instMu.Unlock()
	if err == nil {
		fe.mu.Lock()
		if err = ErrFrontendClosed; !fe.closed {
			fe.queries[name], err = nq, nil
		}
		fe.mu.Unlock()
	}
	if err != nil {
		fe.uninstall(nq)
	}
	return err
}

// installLocked builds a query's result arrangement; on error, what it
// built is still in the query, for uninstall. Caller holds instMu.
func (fe *Frontend) installLocked(name, text string, root *plan.Node) (*netQuery, error) {
	nq := &netQuery{name: name, text: text, subs: make(map[*subscription]struct{})}
	fe.mu.Lock()
	closed, dup := fe.closed, fe.queries[name] != nil
	srcs := make(map[string]*server.Source[uint64, uint64], len(fe.batchers))
	for n, b := range fe.batchers {
		srcs[n] = b.Source()
	}
	fe.mu.Unlock()
	switch {
	case closed:
		return nq, ErrFrontendClosed
	case dup:
		return nq, fmt.Errorf("net: query %q already installed", name)
	}
	for _, s := range root.Sources() {
		if srcs[s] == nil {
			return nq, fmt.Errorf("net: query %q reads unknown source %q", name, s)
		}
	}
	// Materialize the plan's stateful sub-plans bottom-up: each resolves to
	// an existing registry entry or installs a new derived arrangement whose
	// own build imports the entries below it.
	for _, p := range plan.SharedParts(root) {
		e, err := fe.ensurePart(p, srcs)
		if err != nil {
			return nq, err
		}
		nq.held = append(nq.held, e)
	}
	if e := fe.shared[root.Key()]; e != nil {
		nq.root = e.d
		return nq, nil
	}
	var err error
	nq.own, err = fe.installArranged(name, root, srcs)
	nq.root = nq.own
	return nq, err
}

// ensurePart resolves one stateful sub-plan to its registry entry, taking a
// reference: a registry hit reuses the installed derived arrangement, a miss
// installs one (its children are already registered — SharedParts orders
// children first). The part shares the arrangement plan.BuildArranged
// returns, so plan alone decides how it is indexed. Caller holds instMu.
func (fe *Frontend) ensurePart(p *plan.Node, srcs map[string]*server.Source[uint64, uint64]) (*sharedEntry, error) {
	key := p.Key()
	if e := fe.shared[key]; e != nil {
		e.refs++
		fe.hits++
		return e, nil
	}
	d, err := fe.installArranged(partName(key, fe.installs), p, srcs)
	if err != nil {
		return nil, err
	}
	e := &sharedEntry{key: key, d: d, refs: 1}
	fe.shared[key] = e
	fe.sharedOrder = append(fe.sharedOrder, e)
	fe.installs++
	return e, nil
}

// installArranged installs root's arranged output (plan.BuildArranged) as
// a derived arrangement, its leaves resolved against the sources and the
// registry. A worker whose build fails arranges a closed, empty input, so
// the dataflow stays well-formed while the error propagates; the workers'
// errors then undo the install. Caller holds instMu.
func (fe *Frontend) installArranged(name string, root *plan.Node,
	srcs map[string]*server.Source[uint64, uint64]) (*server.Derived[uint64, uint64], error) {

	// Build closures run on worker goroutines: they read a copy.
	resolve := make(map[string]*server.Derived[uint64, uint64], len(fe.shared))
	for k, e := range fe.shared {
		resolve[k] = e.d
	}
	errs := make([]error, fe.srv.Workers())
	d, err := server.InstallDerived(fe.srv, name,
		func(w *timely.Worker, g *timely.Graph) (*core.Arranged[uint64, uint64], func()) {
			env, teardown := buildEnv(g, srcs, resolve)
			out, err := plan.BuildArranged(root, env)
			if err != nil {
				in, c := dd.NewInput[uint64, uint64](g)
				in.Close()
				out = dd.Arrange(c, core.U64(), "plan-empty")
			}
			errs[w.Index()] = err
			return out, teardown
		})
	if err != nil {
		return nil, err
	}
	if err = errors.Join(errs...); err != nil {
		d.Uninstall()
		return nil, err
	}
	return d, nil
}

// release drops one reference from each held entry and uninstalls every
// entry left with none, in reverse install order — parents before the
// children they import, so no live dataflow loses a producer. Entries leave
// the registry under instMu and drain (each uninstall waits for its dataflow
// to quiesce) after it is let go, so installs of other queries never wait
// on a drain.
func (fe *Frontend) release(held []*sharedEntry) {
	var dead []*sharedEntry
	fe.instMu.Lock()
	for _, e := range held {
		e.refs--
	}
	for i := len(fe.sharedOrder) - 1; i >= 0; i-- {
		if e := fe.sharedOrder[i]; e.refs == 0 {
			delete(fe.shared, e.key)
			fe.sharedOrder = append(fe.sharedOrder[:i], fe.sharedOrder[i+1:]...)
			dead = append(dead, e)
		}
	}
	fe.instMu.Unlock()
	for _, e := range dead {
		if fe.drainHook != nil {
			fe.drainHook()
		}
		e.d.Uninstall()
	}
}

// buildEnv resolves a plan's leaves on g: base relations import from srcs,
// already-installed sub-plans from resolve. The teardown it returns cancels
// every import the build made.
func buildEnv(g *timely.Graph,
	srcs map[string]*server.Source[uint64, uint64],
	resolve map[string]*server.Derived[uint64, uint64],
) (plan.Env, func()) {

	var imports []*core.Arranged[uint64, uint64]
	env := plan.Env{
		Source: func(rel string) (*core.Arranged[uint64, uint64], error) {
			src := srcs[rel]
			if src == nil {
				return nil, fmt.Errorf("net: unknown source %q", rel)
			}
			a := src.ImportInto(g)
			imports = append(imports, a)
			return a, nil
		},
		Shared: func(key string) *core.Arranged[uint64, uint64] {
			d := resolve[key]
			if d == nil {
				return nil
			}
			a := d.ImportInto(g)
			imports = append(imports, a)
			return a
		},
	}
	return env, func() {
		for _, a := range imports {
			a.Cancel()
		}
	}
}

// partName derives the server-side query name for a shared sub-plan from its
// canonical key and the registry's install count, so a part installed while
// an earlier one of the same key still drains does not collide with it.
func partName(key string, seq int) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return fmt.Sprintf("plan-%016x-%d", h.Sum64(), seq)
}

// SharedStats reports the shared sub-plan registry's state: live entries,
// derived arrangements installed so far, and sub-plan resolutions served by
// an existing installation instead of a rebuild. Tests and benchmarks assert
// sharing on it: two queries with a common sub-plan must show one install
// plus one hit, not two installs.
type SharedStats struct {
	Entries  int
	Installs int
	Hits     int
}

// SharedStats returns the current registry counters.
func (fe *Frontend) SharedStats() SharedStats {
	fe.instMu.Lock()
	defer fe.instMu.Unlock()
	return SharedStats{Entries: len(fe.shared), Installs: fe.installs, Hits: fe.hits}
}

// WaitComplete blocks until the named query's result arrangement reflects
// every sealed epoch up to and including epoch on all workers, returning
// false if the query is not installed or the server closes first. In-process
// callers (benchmarks, the serve path) use it to time install-to-complete
// without a network subscription.
func (fe *Frontend) WaitComplete(query string, epoch uint64) bool {
	fe.mu.Lock()
	nq := fe.queries[query]
	fe.mu.Unlock()
	if nq == nil {
		return false
	}
	return fe.srv.WaitFor(func() bool { return nq.root.Query().Done(epoch) })
}

// Uninstall tears a query down: its subscribers receive the epochs their
// imports had completed, then their streams end; then its own arrangement
// leaves the workers and its registry references are released.
func (fe *Frontend) Uninstall(name string) error {
	fe.mu.Lock()
	nq := fe.queries[name]
	if nq == nil {
		fe.mu.Unlock()
		return fmt.Errorf("net: query %q is not installed", name)
	}
	delete(fe.queries, name)
	fe.mu.Unlock()
	fe.uninstall(nq)
	return nil
}

// uninstall ends a query's subscriptions, then releases its result
// arrangement.
func (fe *Frontend) uninstall(nq *netQuery) {
	nq.close()
	fe.srv.Wake() // streams parked on their probes see the end
	if nq.own != nil {
		nq.own.Uninstall()
	}
	fe.release(nq.held)
}

func (fe *Frontend) lookupBatcher(name string) (*server.Batcher[uint64, uint64], error) {
	fe.mu.Lock()
	defer fe.mu.Unlock()
	b := fe.batchers[name]
	if b == nil {
		return nil, fmt.Errorf("net: unknown source %q", name)
	}
	return b, nil
}

// Update applies input deltas to a registered source at its current logical
// epoch.
func (fe *Frontend) Update(source string, upds []Delta) error {
	b, err := fe.lookupBatcher(source)
	if err != nil {
		return err
	}
	conv := make([]core.Update[uint64, uint64], len(upds))
	for i, u := range upds {
		conv[i] = core.Update[uint64, uint64]{Key: u.Key, Val: u.Val, Diff: core.Diff(u.Diff)}
	}
	return b.Offer(conv)
}

// Advance seals a source's current logical epoch, returning the sealed
// epoch. This is what drives every subscriber's frontier forward. The
// physical seal may coalesce with neighbors under load (adaptive batching);
// coalesced epochs complete — and reach subscribers — together.
func (fe *Frontend) Advance(source string) (uint64, error) {
	b, err := fe.lookupBatcher(source)
	if err != nil {
		return 0, err
	}
	return b.Seal()
}

// SyncSource flushes any coalesced seals and blocks until every sealed epoch
// of the source is reflected in its arrangement on all workers.
func (fe *Frontend) SyncSource(source string) error {
	b, err := fe.lookupBatcher(source)
	if err != nil {
		return err
	}
	if err := b.Flush(); err != nil {
		return err
	}
	return b.Source().Sync()
}

// List reports the registered sources and installed queries.
func (fe *Frontend) List() Listing {
	fe.mu.Lock()
	defer fe.mu.Unlock()
	var l Listing
	for n, b := range fe.batchers {
		l.Sources = append(l.Sources, SourceInfo{Name: n, Epoch: b.Epoch()})
	}
	for _, nq := range fe.queries {
		l.Queries = append(l.Queries, QueryInfo{Name: nq.name, Text: nq.text})
	}
	sortListing(&l)
	return l
}

// Serve accepts connections on ln until the frontend closes (returns nil)
// or the listener fails (returns the error).
func (fe *Frontend) Serve(ln net.Listener) error {
	fe.mu.Lock()
	if fe.closed {
		fe.mu.Unlock()
		ln.Close()
		return ErrFrontendClosed
	}
	fe.ln = ln
	fe.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			fe.mu.Lock()
			closed := fe.closed
			fe.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		fe.mu.Lock()
		if fe.closed {
			fe.mu.Unlock()
			conn.Close()
			return nil
		}
		fe.conns[conn] = struct{}{}
		fe.wg.Add(1)
		fe.mu.Unlock()
		go fe.handleConn(conn)
	}
}

// Close stops accepting, severs every connection (subscribers' writes and
// reads error out rather than wedge), ends every stream, uninstalls the
// frontend's queries, and waits for all of its goroutines. Idempotent. Close
// the frontend before the server.
func (fe *Frontend) Close() {
	fe.mu.Lock()
	if fe.closed {
		fe.mu.Unlock()
		return
	}
	fe.closed = true
	ln := fe.ln
	conns := make([]net.Conn, 0, len(fe.conns))
	for c := range fe.conns {
		conns = append(conns, c)
	}
	queries := make([]*netQuery, 0, len(fe.queries))
	for _, nq := range fe.queries {
		queries = append(queries, nq)
	}
	fe.queries = make(map[string]*netQuery)
	batchers := make([]*server.Batcher[uint64, uint64], 0, len(fe.batchers))
	for _, b := range fe.batchers {
		batchers = append(batchers, b)
	}
	fe.mu.Unlock()

	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	// The last query's release drains the registry.
	for _, nq := range queries {
		fe.uninstall(nq)
	}
	for _, b := range batchers {
		b.Flush() // seal anything coalesced so nothing is silently pending
		b.Close()
	}
	fe.wg.Wait()
}

// handleConn serves one connection: a hello handshake, then a request loop.
// Frame or decode errors disconnect (after a best-effort typed error reply);
// request-level errors (unknown source, bad query, closed server) reply
// respErr and keep the connection.
func (fe *Frontend) handleConn(conn net.Conn) {
	defer fe.wg.Done()
	var streams sync.WaitGroup
	defer func() {
		conn.Close() // unblocks this connection's streamers
		streams.Wait()
		fe.mu.Lock()
		delete(fe.conns, conn)
		fe.mu.Unlock()
	}()

	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	var wmu sync.Mutex // streamers and the request loop share the socket
	write := func(payload []byte) error {
		wmu.Lock()
		defer wmu.Unlock()
		if _, err := w.Write(wal.AppendRecord(nil, payload)); err != nil {
			return err
		}
		return w.Flush()
	}

	payload, err := wal.ReadRecord(r, MaxFrame)
	if err != nil {
		return
	}
	req, err := decodeRequest(payload)
	if err != nil || req.kind != reqHello {
		write(encodeErr("net: expected hello"))
		return
	}
	if req.magic != Magic || req.version != Version {
		write(encodeErr(fmt.Sprintf("net: protocol mismatch (want magic %08x version %d)",
			Magic, Version)))
		return
	}
	// The reply carries the worker count, with the version in its high half.
	if err := write(encodeOK(uint64(fe.srv.Workers()) | uint64(Version)<<32)); err != nil {
		return
	}

	for {
		payload, err := wal.ReadRecord(r, MaxFrame)
		if err != nil {
			return // clean EOF, dead peer, or damaged frame: disconnect
		}
		req, err := decodeRequest(payload)
		if err != nil {
			// A structurally invalid frame means the stream is unsafe to
			// keep parsing: reply with the typed error, then disconnect.
			write(encodeErr(err.Error()))
			return
		}
		switch req.kind {
		case reqHello:
			if write(encodeErr("net: duplicate hello")) != nil {
				return
			}
		case reqInstallPlan:
			// Decode never panics and validates the plan, so arbitrary bytes
			// yield a clean respErr.
			root, err := plan.Decode(req.blob)
			if err == nil {
				err = fe.InstallPlan(req.name, req.text, root)
			}
			if fe.reply(write, 0, err) != nil {
				return
			}
		case reqUninstall:
			if fe.reply(write, 0, fe.Uninstall(req.name)) != nil {
				return
			}
		case reqUpdate:
			if fe.reply(write, 0, fe.Update(req.name, req.upds)) != nil {
				return
			}
		case reqAdvance:
			sealed, err := fe.Advance(req.name)
			if fe.reply(write, sealed, err) != nil {
				return
			}
		case reqSync:
			if fe.reply(write, 0, fe.SyncSource(req.name)) != nil {
				return
			}
		case reqList:
			if write(encodeListing(fe.List())) != nil {
				return
			}
		case reqSubscribe:
			fe.mu.Lock()
			maxLag := fe.opt.SubscriberMaxLag
			nqs := make([]*netQuery, 0, len(req.names))
			var missing string
			for _, n := range req.names {
				if nq := fe.queries[n]; nq != nil {
					nqs = append(nqs, nq)
				} else {
					missing = n
				}
			}
			fe.mu.Unlock()
			if missing != "" {
				if write(encodeErr(fmt.Sprintf("net: query %q is not installed", missing))) != nil {
					return
				}
				continue
			}
			if write(encodeOK(0)) != nil {
				return
			}
			for _, nq := range nqs {
				streams.Add(1)
				go streamTo(&subscription{fe: fe, nq: nq, maxLag: maxLag}, write, &streams)
			}
		}
	}
}

// reply writes respOK (with a value) or respErr; its return value is only
// the connection's health.
func (fe *Frontend) reply(write func([]byte) error, value uint64, err error) error {
	if err != nil {
		return write(encodeErr(err.Error()))
	}
	return write(encodeOK(value))
}

// sortListing orders a listing deterministically.
func sortListing(l *Listing) {
	sort.Slice(l.Sources, func(i, j int) bool { return l.Sources[i].Name < l.Sources[j].Name })
	sort.Slice(l.Queries, func(i, j int) bool { return l.Queries[i].Name < l.Queries[j].Name })
}

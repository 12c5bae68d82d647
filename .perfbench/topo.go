package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mds2/internal/giis"
	"mds2/internal/gris"
	"mds2/internal/grrp"
	"mds2/internal/ldap"
	"mds2/internal/obs"
	"mds2/internal/persist"
)

// The generator's client connections. At most nproc are open at once; a
// dial past that is a benchmark bug and fails the run.
var (
	genConnsOpen atomic.Int64
	genConnsPeak atomic.Int64
)

func nprocs() int { return runtime.NumCPU() }

func genDial(addr string) (*ldap.Client, error) {
	if n := genConnsOpen.Add(1); n > int64(nprocs()) {
		genConnsOpen.Add(-1)
		return nil, fmt.Errorf("generator would open %d connections, more than nproc=%d", n, nprocs())
	} else if n > genConnsPeak.Load() {
		genConnsPeak.Store(n)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		genConnsOpen.Add(-1)
		return nil, err
	}
	c := ldap.NewClient(conn)
	c.Timeout = opTimeout
	return c, nil
}

func genClose(c *ldap.Client) {
	c.Close()
	genConnsOpen.Add(-1)
}

func genDialN(addr string, n int) ([]*ldap.Client, error) {
	out := make([]*ldap.Client, 0, n)
	for i := 0; i < n; i++ {
		c, err := genDial(addr)
		if err != nil {
			genCloseAll(out)
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

func genCloseAll(cs []*ldap.Client) {
	for _, c := range cs {
		genClose(c)
	}
}

// opTimeout bounds one operation; a timeout counts as an error.
const opTimeout = 10 * time.Second

// corpus serves a fixed, pre-built entry set with a long cache TTL, so the
// GRIS cache stays warm and provider cost is zero.
type corpus struct {
	suffix  ldap.DN
	entries []*ldap.Entry
}

func (b *corpus) Name() string                               { return "corpus" }
func (b *corpus) Suffix() ldap.DN                            { return b.suffix }
func (b *corpus) Attributes() []string                       { return nil }
func (b *corpus) CacheTTL() time.Duration                    { return time.Hour }
func (b *corpus) Entries(*gris.Query) ([]*ldap.Entry, error) { return b.entries, nil }

// hostEntries builds n six-attribute host entries under suffix.
func hostEntries(suffix ldap.DN, n int) []*ldap.Entry {
	out := make([]*ldap.Entry, 0, n)
	for i := 0; i < n; i++ {
		hn := fmt.Sprintf("h%03d", i)
		out = append(out, ldap.NewEntry(suffix.ChildAVA("hn", hn)).
			Add("objectclass", "computer").
			Add("hn", hn).
			Add("system", "linux redhat").
			Add("cpucount", fmt.Sprint(2<<(i%3))).
			Add("memsize", "2048").
			Add("load5", fmt.Sprintf("%d.%d", i%4, i%10)))
	}
	return out
}

// query is one search the generator sends, with the exact DN set it must
// return.
type query struct {
	req  *ldap.SearchRequest
	want map[string]int // DN string -> index
}

// newQuery builds a search and its expected answer: the corpus entries
// matching filter inside the region, renamed from the provider's suffix
// into the view the front server presents.
func newQuery(base ldap.DN, scope ldap.Scope, filter string, corpora []*corpus, views []ldap.DN) *query {
	f, err := ldap.ParseFilter(filter)
	if err != nil {
		panic(err)
	}
	q := &query{req: &ldap.SearchRequest{BaseDN: base.String(), Scope: scope, Filter: f},
		want: map[string]int{}}
	for i, c := range corpora {
		for _, e := range c.entries {
			rel, _ := e.DN.RelativeTo(c.suffix)
			dn := rel.Under(views[i])
			if dn.WithinScope(base, scope) && f.Matches(e) {
				q.want[dn.String()] = len(q.want)
			}
		}
	}
	return q
}

// lookupQuery is a one-level child-index search for one service URL; it
// must return exactly that child's index entry.
func lookupQuery(suffix ldap.DN, url string) *query {
	u, err := ldap.ParseURL(url)
	if err != nil {
		panic(err)
	}
	return &query{
		req: &ldap.SearchRequest{BaseDN: suffix.String(), Scope: ldap.ScopeSingleLevel,
			Filter: ldap.Eq("url", u.String())},
		want: map[string]int{suffix.ChildAVA("mds-child", u.String()).String(): 0},
	}
}

// registration is one GRRP registration the generator refreshes.
type registration struct {
	url, mdsType, suffix string
}

func (r registration) entry() *ldap.Entry {
	now := time.Now()
	m := grrp.Message{Type: grrp.TypeRegister, ServiceURL: r.url, MDSType: r.mdsType,
		VO: "bench", SuffixDN: r.suffix, IssuedAt: now, ValidUntil: now.Add(time.Hour)}
	return m.ToEntry()
}

// node is one LDAP server of a topology.
type node struct {
	srv  *ldap.Server
	addr string
	obs  *obs.Registry // nil in untraced topologies
	dir  *giis.Server  // set for GIIS nodes
	res  *gris.Server  // set for GRIS nodes
}

func (n *node) stop() {
	n.srv.Close()
	if n.dir != nil {
		n.dir.Close()
	}
}

// topology is one workload's running system plus the queries, lookups,
// and registrations its generator draws from.
type topology struct {
	w     *workload
	t     *tracer // nil when untraced
	front *node
	nodes []*node // every node, front included

	searches []*query
	lookups  []*query
	regs     []registration
	// frontRegs are the registrations the front directory holds from its
	// own children; a restart re-establishes them.
	frontRegs []registration

	pm      *persist.Manager
	pmObs   *obs.Registry
	dataDir string
	// restart rebuilds the front node after a crash and re-establishes its
	// registrations; it returns the persist phase timings (zero when the
	// workload has no WAL).
	restart func() (phases, error)
}

// phases times one WAL recovery.
type phases struct{ open, recover, attach time.Duration }

func (tp *topology) close() {
	for _, n := range tp.nodes {
		n.stop()
	}
	if tp.pm != nil {
		tp.pm.Close()
	}
	if tp.dataDir != "" {
		os.RemoveAll(tp.dataDir)
	}
}

// serve starts an LDAP server for h on a fresh loopback listener. In a
// traced topology the handler, listener, and server registry are wrapped.
func (tp *topology) serve(l net.Listener, h ldap.Handler, reg *obs.Registry, ov ldap.OverloadConfig, front bool) *ldap.Server {
	srv := ldap.NewServer(h)
	srv.Overload = ov
	if tp.t != nil {
		srv.Obs = reg
		l = &tracedListener{Listener: l, t: tp.t, front: front}
	}
	go srv.Serve(l)
	return srv
}

func (tp *topology) registry() *obs.Registry {
	if tp.t == nil {
		return nil
	}
	return obs.NewRegistry()
}

func (tp *topology) wrap(h ldap.Handler, isGRIS bool, suffix ldap.DN, front bool) ldap.Handler {
	if tp.t == nil {
		return h
	}
	return &tracedHandler{Handler: h, t: tp.t, isGRIS: isGRIS, suffix: suffix, front: front}
}

// startGRIS serves a corpus-backed GRIS.
func (tp *topology) startGRIS(c *corpus) (*node, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{addr: l.Addr().String(), obs: tp.registry()}
	n.res = tp.newGRIS(c, n.obs)
	n.srv = tp.serve(l, tp.wrap(n.res, true, c.suffix, false), n.obs, ldap.OverloadConfig{}, false)
	tp.nodes = append(tp.nodes, n)
	return n, nil
}

func (tp *topology) newGRIS(c *corpus, reg *obs.Registry) *gris.Server {
	g := gris.New(gris.Config{Suffix: c.suffix, Obs: reg})
	var b gris.Backend = c
	if tp.t != nil {
		b = &tracedBackend{Backend: c, t: tp.t}
	}
	g.Register(b)
	return g
}

// newGIIS builds a chaining GIIS listening on l.
func (tp *topology) newGIIS(l net.Listener, name string, suffix ldap.DN, reg *obs.Registry, qcache bool) *giis.Server {
	cfg := giis.Config{Name: name, Suffix: suffix, Obs: reg,
		SelfURL: mustURL("ldap://" + l.Addr().String())}
	if tp.t != nil {
		cfg.Dial = tp.t.dialer
	}
	if qcache {
		cfg.QueryCache = true
		cfg.QueryCacheTTL = 10 * time.Minute
	}
	return giis.New(cfg)
}

// startGIIS serves a chaining GIIS whose children are registered
// in-process.
func (tp *topology) startGIIS(name string, suffix ldap.DN, children []registration) (*node, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{addr: l.Addr().String(), obs: tp.registry()}
	n.dir = tp.newGIIS(l, name, suffix, n.obs, false)
	for _, r := range children {
		m, err := grrp.FromEntry(r.entry())
		if err != nil || !n.dir.Ingest(m) {
			l.Close()
			n.dir.Close()
			return nil, fmt.Errorf("%s refused registration of %s", name, r.url)
		}
	}
	n.srv = tp.serve(l, tp.wrap(n.dir, false, suffix, false), n.obs, ldap.OverloadConfig{}, false)
	tp.nodes = append(tp.nodes, n)
	return n, nil
}

func mustURL(s string) ldap.URL {
	u, err := ldap.ParseURL(s)
	if err != nil {
		panic(err)
	}
	return u
}

// replaceFront swaps the crashed front node for its restarted successor.
func (tp *topology) replaceFront(n *node) {
	for i, old := range tp.nodes {
		if old == tp.front {
			tp.nodes[i] = n
		}
	}
	tp.front = n
}

// register adds registrations at the front server over the given clients,
// keeping up to 8 adds in flight per connection.
func register(clients []*ldap.Client, regs []registration) error {
	var (
		wg    sync.WaitGroup
		errMu sync.Mutex
		first error
		next  atomic.Int64
	)
	for w := 0; w < 8*len(clients); w++ {
		wg.Add(1)
		go func(c *ldap.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(regs) {
					return
				}
				if err := c.Add(regs[i].entry()); err != nil {
					errMu.Lock()
					if first == nil {
						first = fmt.Errorf("registering %s: %w", regs[i].url, err)
					}
					errMu.Unlock()
					return
				}
			}
		}(clients[w%len(clients)])
	}
	wg.Wait()
	return first
}

// exec runs one generated operation and verifies its answer.
func (tp *topology) exec(c *ldap.Client, o op, reqID uint64) (int, outcome, string) {
	var ctls []ldap.Control
	if tp.t != nil {
		ctls = []ldap.Control{requestControl(reqID)}
	}
	switch o.kind {
	case kSearch:
		return runQuery(c, tp.searches[o.arg], ctls)
	case kLookup:
		return runQuery(c, tp.lookups[o.arg], ctls)
	default:
		if err := c.Add(tp.regs[o.arg].entry()); err != nil {
			return 0, classify(err), ""
		}
		return 0, outOK, ""
	}
}

// runQuery sends q and checks that the answer is exactly q's DN set.
func runQuery(c *ldap.Client, q *query, ctls []ldap.Control) (int, outcome, string) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	seen := make([]bool, len(q.want))
	n, bad := 0, ""
	var done ldap.Result
	err := c.SearchFunc(ctx, q.req, ctls, func(e *ldap.Entry, _ []ldap.Control) error {
		n++
		dn := e.DN.String()
		i, ok := q.want[dn]
		switch {
		case !ok:
			bad = "unexpected entry " + dn
		case seen[i]:
			bad = "duplicate entry " + dn
		default:
			seen[i] = true
		}
		return nil
	}, nil, &done)
	if err != nil {
		return n, outError, ""
	}
	if done.Code != ldap.ResultSuccess {
		return n, classify(done.Err()), ""
	}
	if bad == "" && n != len(q.want) {
		bad = fmt.Sprintf("got %d entries, want %d", n, len(q.want))
	}
	if bad != "" {
		return n, outWrong, fmt.Sprintf("%s %q: %s", q.req.BaseDN, q.req.Filter.String(), bad)
	}
	return n, outOK, ""
}

func classify(err error) outcome {
	if ldap.IsCode(err, ldap.ResultBusy) || ldap.IsCode(err, ldap.ResultUnavailable) {
		return outShed
	}
	return outError
}

// verifyOnce runs one query of every read kind and fails unless each is
// answered correctly.
func (tp *topology) verifyOnce(c *ldap.Client) error {
	for _, q := range []*query{tp.searches[0], tp.lookups[0]} {
		if _, out, why := runQuery(c, q, nil); out != outOK {
			if why == "" {
				why = fmt.Sprintf("outcome %d", out)
			}
			return errors.New(why)
		}
	}
	return nil
}

package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"mds2/internal/grrp"
	"mds2/internal/ldap"
	"mds2/internal/persist"
)

// workload is one traffic mix against one topology.
type workload struct {
	name string
	// mix is the nominal offered load, about half of what a 2-core box
	// sustains for the workload.
	mix mix
	// limit is the p99 latency every op kind must meet for a probe step
	// to count toward max_qps.
	limit time.Duration
	// overload is the front server's admission control ("off" when zero).
	overload ldap.OverloadConfig
	// wal names the persist sync policy, or "none".
	wal   string
	build func(tp *topology) error
}

var workloads = []*workload{
	{
		name: "gris-stream",
		mix: mix{rates: [numKinds]float64{kSearch: 300, kLookup: 75, kRegister: 75},
			args: [numKinds]int{kSearch: 1, kLookup: streamSites, kRegister: streamSites}},
		limit: 100 * time.Millisecond,
		// Admission queues but never sheds: the queue holds every operation
		// the generator can have outstanding and no wait budget is set, so
		// a host stall shows as queue wait, not as failed operations.
		overload: ldap.OverloadConfig{MaxWorkers: 8, MaxQueue: maxInflight},
		wal:      "none",
		build:    buildGRISStream,
	},
	{
		name: "giis-chain",
		mix: mix{rates: [numKinds]float64{kSearch: 80, kLookup: 40, kRegister: 40},
			args: [numKinds]int{kSearch: 20, kLookup: 2, kRegister: 2}},
		limit: 250 * time.Millisecond,
		wal:   "none",
		build: buildGIISChain,
	},
	{
		name: "registry-churn",
		mix: mix{rates: [numKinds]float64{kSearch: 15, kLookup: 15, kRegister: 90},
			args: [numKinds]int{kSearch: 2, kLookup: churnPreload + 2, kRegister: churnPreload}},
		limit: 500 * time.Millisecond,
		wal:   "always",
		build: buildRegistryChurn,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// frontend is one LDAP front end serving a GRIS backend and a GIIS backend,
// routed by suffix — the way an MDS-2.1 site runs both inside one slapd
// (§10.4). Registrations (adds) and searches under the GIIS suffix go to
// the directory; everything else to the GRIS.
type frontend struct {
	ldap.BaseHandler
	gris, giis ldap.Handler
	giisSuffix ldap.DN
}

func (f *frontend) Bind(req *ldap.Request, op *ldap.BindRequest) *ldap.BindResponse {
	return f.giis.Bind(req, op)
}

func (f *frontend) Search(req *ldap.Request, op *ldap.SearchRequest, w ldap.SearchWriter) ldap.Result {
	if base, err := ldap.ParseDN(op.BaseDN); err == nil &&
		(base.Equal(f.giisSuffix) || base.IsDescendantOf(f.giisSuffix)) {
		return f.giis.Search(req, op, w)
	}
	return f.gris.Search(req, op, w)
}

func (f *frontend) Add(req *ldap.Request, op *ldap.AddRequest) ldap.Result {
	return f.giis.Add(req, op)
}

// streamSites is the number of resources registered in the gris-stream
// site directory: the local GRIS plus peers that are never contacted.
const streamSites = 4

// buildGRISStream: one front end whose GRIS streams exactly 100 entries
// from a free corpus (cache warm), beside a small in-memory site directory
// that takes the lookups and registrations. The search path never enters
// giis, qcache, softstate or persist code.
func buildGRISStream(tp *topology) error {
	site := ldap.MustParseDN("ou=s0, o=site")
	dirSuffix := ldap.MustParseDN("vo=bench")
	c := &corpus{suffix: site, entries: hostEntries(site, 100)}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := l.Addr().String()
	// The GRIS shares the front end's address with the site directory, so
	// its registration names the GRIS suffix in the URL to stay distinct
	// from the directory's own service URL.
	tp.regs = []registration{{url: "ldap://" + addr + "/" + site.String(), mdsType: "gris", suffix: site.String()}}
	for i := 1; i < streamSites; i++ {
		tp.regs = append(tp.regs, registration{url: fmt.Sprintf("ldap://peer%d.bench.invalid:2135", i),
			mdsType: "gris", suffix: fmt.Sprintf("ou=s%d, o=site", i)})
	}
	tp.frontRegs = tp.regs
	tp.searches = []*query{newQuery(site, ldap.ScopeWholeSubtree, "(objectclass=computer)",
		[]*corpus{c}, []ldap.DN{site})}
	for _, r := range tp.regs {
		tp.lookups = append(tp.lookups, lookupQuery(dirSuffix, r.url))
	}

	start := func(l net.Listener) *node {
		n := &node{addr: l.Addr().String(), obs: tp.registry()}
		n.res = tp.newGRIS(c, n.obs)
		n.dir = tp.newGIIS(l, "giis.site", dirSuffix, n.obs, false)
		fe := &frontend{gris: tp.wrap(n.res, true, site, true),
			giis: tp.wrap(n.dir, false, dirSuffix, true), giisSuffix: dirSuffix}
		n.srv = tp.serve(l, fe, n.obs, tp.w.overload, true)
		return n
	}
	tp.front = start(l)
	tp.nodes = append(tp.nodes, tp.front)
	tp.restart = func() (phases, error) {
		l, err := listenAgain(tp.front.addr)
		if err != nil {
			return phases{}, err
		}
		tp.replaceFront(start(l))
		return phases{}, nil
	}
	return nil
}

// buildGIISChain: a root GIIS chains to 2 mid GIIS, which chain to 4 GRIS
// of 25 entries each; no query cache. Whole-subtree searches take 6 hops;
// one search in five is scoped to a single leaf (2 hops).
func buildGIISChain(tp *topology) error {
	root := ldap.MustParseDN("o=grid")
	var leaves []*corpus
	var views []ldap.DN
	var mids []registration
	for j := 0; j < 2; j++ {
		mid := ldap.MustParseDN(fmt.Sprintf("ou=m%d, o=grid", j))
		var kids []registration
		for k := 2 * j; k < 2*j+2; k++ {
			suffix := ldap.MustParseDN(fmt.Sprintf("ou=s%d, ou=m%d, o=grid", k, j))
			c := &corpus{suffix: suffix, entries: hostEntries(suffix, 25)}
			n, err := tp.startGRIS(c)
			if err != nil {
				return err
			}
			leaves, views = append(leaves, c), append(views, suffix)
			kids = append(kids, registration{url: "ldap://" + n.addr, mdsType: "gris", suffix: suffix.String()})
		}
		n, err := tp.startGIIS(fmt.Sprintf("giis.m%d", j), mid, kids)
		if err != nil {
			return err
		}
		mids = append(mids, registration{url: "ldap://" + n.addr, mdsType: "giis", suffix: mid.String()})
	}
	tp.regs, tp.frontRegs = mids, mids
	for i := 0; i < 16; i++ {
		tp.searches = append(tp.searches, newQuery(root, ldap.ScopeWholeSubtree, "(objectclass=computer)", leaves, views))
	}
	for _, leaf := range views {
		tp.searches = append(tp.searches, newQuery(leaf, ldap.ScopeWholeSubtree, "(objectclass=computer)", leaves, views))
	}
	for _, m := range mids {
		tp.lookups = append(tp.lookups, lookupQuery(root, m.url))
	}

	start := func(l net.Listener) *node {
		n := &node{addr: l.Addr().String(), obs: tp.registry()}
		n.dir = tp.newGIIS(l, "giis.root", root, n.obs, false)
		n.srv = tp.serve(l, tp.wrap(n.dir, false, root, true), n.obs, tp.w.overload, true)
		return n
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	tp.front = start(l)
	tp.nodes = append(tp.nodes, tp.front)
	tp.restart = func() (phases, error) {
		l, err := listenAgain(tp.front.addr)
		if err != nil {
			return phases{}, err
		}
		tp.replaceFront(start(l))
		return phases{}, nil
	}
	return nil
}

// churnPreload is the number of registrations registry-churn preloads.
const churnPreload = 2000

// buildRegistryChurn: a root GIIS with the query cache on and a WAL-backed
// registry (SyncAlways) holding 2,000 preloaded registrations plus 2 real
// GRIS children. Registrations refresh preloaded keys; lookups search the
// child index; searches are hot chained queries under ou=s0 that the query
// cache answers.
func buildRegistryChurn(tp *topology) error {
	root := ldap.MustParseDN("vo=churn")
	var corpora []*corpus
	var views []ldap.DN
	for k := 0; k < 2; k++ {
		suffix := ldap.MustParseDN(fmt.Sprintf("ou=s%d, o=site", k))
		c := &corpus{suffix: suffix, entries: hostEntries(suffix, 25)}
		n, err := tp.startGRIS(c)
		if err != nil {
			return err
		}
		corpora, views = append(corpora, c), append(views, suffix.Under(root))
		tp.frontRegs = append(tp.frontRegs, registration{url: "ldap://" + n.addr, mdsType: "gris", suffix: suffix.String()})
	}
	for i := 0; i < churnPreload; i++ {
		tp.regs = append(tp.regs, registration{url: fmt.Sprintf("ldap://p%04d.pool.bench.invalid:2135", i),
			mdsType: "gris", suffix: fmt.Sprintf("hn=p%04d, o=pool", i)})
	}
	tp.frontRegs = append(tp.frontRegs, tp.regs...)
	hot := views[0]
	tp.searches = []*query{
		newQuery(hot, ldap.ScopeWholeSubtree, "(objectclass=computer)", corpora, views),
		newQuery(hot, ldap.ScopeWholeSubtree, "(|(cpucount=2)(cpucount=8))", corpora, views),
	}
	// Lookups cover the real children too, so arg 0 (used for the
	// post-recovery check) names a GRIS that registered over the wire.
	for _, r := range tp.frontRegs {
		tp.lookups = append(tp.lookups, lookupQuery(root, r.url))
	}

	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workDir, "wal-")
	if err != nil {
		return err
	}
	tp.dataDir = dir
	opts := persist.Options{Dir: filepath.Join(dir, "giis"), Sync: persist.SyncAlways,
		Codec: persist.PayloadCodec{Encode: grrp.EncodePayload, Decode: grrp.DecodePayload}}

	// boot opens the WAL, recovers any prior registry image, attaches, and
	// serves: the crash-restart path and first boot are the same code.
	boot := func(l net.Listener) (*node, phases, error) {
		var ph phases
		n := &node{addr: l.Addr().String(), obs: tp.registry()}
		n.dir = tp.newGIIS(l, "giis.churn", root, n.obs, true)
		reg := n.dir.Receiver().Registry
		o := opts
		o.Obs = tp.registry()
		t0 := time.Now()
		pm, err := persist.Open(o)
		ph.open = time.Since(t0)
		if err != nil {
			return nil, ph, err
		}
		if pm.HasState() {
			t0 = time.Now()
			if _, err := pm.Recover(nil, reg); err != nil {
				return nil, ph, err
			}
			ph.recover = time.Since(t0)
		}
		t0 = time.Now()
		if err := pm.Attach(nil, reg); err != nil {
			return nil, ph, err
		}
		ph.attach = time.Since(t0)
		if tp.t != nil {
			reg.SetJournal(&tracedJournal{inner: pm, t: tp.t})
		}
		tp.pm, tp.pmObs = pm, o.Obs
		n.srv = tp.serve(l, tp.wrap(n.dir, false, root, true), n.obs, tp.w.overload, true)
		return n, ph, nil
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	n, _, err := boot(l)
	if err != nil {
		l.Close()
		return err
	}
	tp.front = n
	tp.nodes = append(tp.nodes, n)
	tp.restart = func() (phases, error) {
		l, err := listenAgain(tp.front.addr)
		if err != nil {
			return phases{}, err
		}
		n, ph, err := boot(l)
		if err != nil {
			l.Close()
			return ph, err
		}
		tp.replaceFront(n)
		return ph, nil
	}
	return nil
}

// listenAgain rebinds a crashed server's address, falling back to a fresh
// port if the old one is not yet free.
func listenAgain(addr string) (net.Listener, error) {
	if l, err := net.Listen("tcp", addr); err == nil {
		return l, nil
	}
	return net.Listen("tcp", "127.0.0.1:0")
}

// crashFront kills the front node without any shutdown work: the WAL is
// abandoned unflushed (persist's kill -9 stand-in) and every connection
// drops.
func (tp *topology) crashFront() {
	if tp.pm != nil {
		tp.pm.Crash()
		tp.pm = nil
	}
	tp.front.stop()
}

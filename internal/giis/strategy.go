package giis

import (
	"fmt"
	"sync"
	"time"

	"mds2/internal/bloom"
	"mds2/internal/ldap"
	"mds2/internal/qcache"
)

// NewStrategy builds a strategy by its configuration name: chain | cache |
// referral | bloom. ttl is the index freshness of cache and the summary
// freshness of bloom.
func NewStrategy(name string, ttl time.Duration) (Strategy, error) {
	switch name {
	case "chain":
		return NewChaining(), nil
	case "cache":
		return NewCachedIndex(ttl), nil
	case "referral":
		return NewReferral(), nil
	case "bloom":
		return NewBloomRouted(ttl), nil
	}
	return nil, fmt.Errorf("unknown strategy %q", name)
}

// SearchContext carries one data search through a strategy.
type SearchContext struct {
	Server   *Server
	Req      *ldap.Request
	Op       *ldap.SearchRequest
	W        ldap.SearchWriter
	Base     ldap.DN
	Children []Child

	sent *int64 // shared with the local-entry sender for SizeLimit
}

// send streams one translated entry, honouring the size limit.
func (c *SearchContext) send(e *ldap.Entry) error {
	if c.Op.SizeLimit > 0 && *c.sent >= c.Op.SizeLimit {
		return errSizeLimit
	}
	*c.sent++
	return c.W.SendEntry(e.Select(c.Op.Attributes))
}

// Strategy is the pluggable search handling of §10.4.
type Strategy interface {
	// Name identifies the strategy in configuration and experiments.
	Name() string
	// Search answers the data portion of a query.
	Search(ctx *SearchContext) ldap.Result
	// attach gives the strategy its owning server before first use.
	attach(s *Server)
}

// Chaining forwards requests to every live child whose namespace
// intersects the query region and merges results — the simple aggregate
// directory MDS-2.1 ships (§10.4: "GRIP requests directed to the GIIS are
// simply forwarded on to the appropriate information provider").
//
// The fan-out is bounded and hedged: at most MaxFanout chained requests run
// concurrently, child replies stream to the client as they arrive (no
// full-barrier merge), and an optional hedge deadline cuts the search off
// at a bounded latency with whatever has arrived rather than waiting on
// the slowest or partitioned child.
type Chaining struct {
	// Parallel fans chained requests out concurrently.
	Parallel bool
	// MaxFanout bounds concurrent chained requests per search; zero means
	// DefaultMaxFanout. Excess children queue for a free worker, so a
	// directory with hundreds of children no longer spawns a goroutine and
	// connection burst per query.
	MaxFanout int
	// HedgeDeadline is the soft deadline for child replies, measured on
	// the directory's clock: when it expires, the replies received so far
	// are returned and the result is marked partial, instead of the whole
	// search blocking on a slow or partitioned child. Zero waits for every
	// child (the pre-hedge behaviour).
	HedgeDeadline time.Duration
	s             *Server
}

// DefaultMaxFanout bounds chained concurrency when MaxFanout is unset.
const DefaultMaxFanout = 16

// NewChaining returns the default strategy (parallel bounded fan-out, no
// hedge deadline).
func NewChaining() *Chaining { return &Chaining{Parallel: true} }

// Name implements Strategy.
func (c *Chaining) Name() string { return "chaining" }

func (c *Chaining) attach(s *Server) { c.s = s }

// Search implements Strategy.
func (c *Chaining) Search(ctx *SearchContext) ldap.Result {
	relevant := make([]Child, 0, len(ctx.Children))
	for _, child := range ctx.Children {
		if _, _, ok := translateRegion(ctx.Base, ctx.Op.Scope, child); ok {
			relevant = append(relevant, child)
		}
	}
	if len(relevant) == 0 {
		return ldap.Result{Code: ldap.ResultSuccess}
	}
	c.s.hFanout.ObserveValue(int64(len(relevant)))

	type reply struct {
		entries []*ldap.Entry
		err     error
	}
	// Both channels are buffered for the full fan-out so workers never
	// block: after a hedge cutoff the search returns immediately and any
	// straggling worker finishes into the buffer and exits.
	jobs := make(chan Child, len(relevant))
	for _, child := range relevant {
		jobs <- child
	}
	close(jobs)
	replies := make(chan reply, len(relevant))
	workers := c.MaxFanout
	if workers <= 0 {
		workers = DefaultMaxFanout
	}
	if !c.Parallel {
		workers = 1
	}
	if workers > len(relevant) {
		workers = len(relevant)
	}
	for i := 0; i < workers; i++ {
		go func() {
			for child := range jobs {
				entries, err := c.s.chain(ctx.Req, child, ctx.Base, ctx.Op.Scope, ctx.Op.Filter,
					ctx.Op.Attributes, ctx.Op.SizeLimit)
				replies <- reply{entries, err}
			}
		}()
	}

	var hedge <-chan time.Time
	if c.HedgeDeadline > 0 {
		hedge = c.s.clock.After(c.HedgeDeadline)
	}
	// A size limit imposes a global order on which entries are kept, so
	// replies buffer and sort before streaming; otherwise each child's
	// reply streams to the client the moment it arrives (sorted within the
	// child for determinism).
	ordered := ctx.Op.SizeLimit > 0
	var buffered []*ldap.Entry
	unreachable, hedged := false, false

collect:
	for done := 0; done < len(relevant); done++ {
		select {
		case r := <-replies:
			if r.err != nil {
				// A failed or partitioned child must not block the others
				// (§2.2); we return what is reachable.
				unreachable = true
				continue
			}
			if ordered {
				buffered = append(buffered, r.entries...)
				continue
			}
			ldap.SortEntries(r.entries)
			for _, e := range r.entries {
				if err := ctx.send(e); err != nil {
					return sizeOrUnavailable(err)
				}
			}
		case <-hedge:
			hedged = true
			c.s.HedgeFired.Inc()
			break collect
		}
	}
	if ordered {
		ldap.SortEntries(buffered)
		for _, e := range buffered {
			if err := ctx.send(e); err != nil {
				return sizeOrUnavailable(err)
			}
		}
	}
	res := ldap.Result{Code: ldap.ResultSuccess}
	switch {
	case hedged:
		res.Message = "partial results: hedge deadline expired before all providers replied"
	case unreachable:
		res.Message = "partial results: some providers unreachable"
	}
	return res
}

// CachedIndex maintains a local copy of each child's entries, refreshed
// through GRIP when stale — the §3 "relational aggregate directory" that
// "follows up each registration with a GRIP query to determine its
// properties". Queries are answered entirely from the index, trading
// freshness for query cost (experiment E4/E6 territory: "tradeoffs between
// the power of an index, the cost associated with maintaining it, and its
// freshness").
type CachedIndex struct {
	// TTL bounds index staleness; stale children are re-fetched on demand.
	TTL time.Duration

	s *Server
	// qc is the per-child entry-set cache. The strategy predates the qcache
	// core and used to carry its own TTL map; it now rides the shared
	// implementation (one freshness/singleflight/eviction path in the tree)
	// with ServeStale on, preserving the §2.2 partition behaviour.
	qc *qcache.Cache
}

// NewCachedIndex returns a cached-index strategy with the given freshness
// bound.
func NewCachedIndex(ttl time.Duration) *CachedIndex {
	return &CachedIndex{TTL: ttl}
}

// Name implements Strategy.
func (c *CachedIndex) Name() string { return "cached-index" }

func (c *CachedIndex) attach(s *Server) {
	c.s = s
	c.qc = qcache.New(qcache.Config{
		Name:  "giis_index",
		Clock: s.clock,
		TTL:   c.TTL,
		// An empty child subtree is as expensive to re-fetch as a full one:
		// negative results keep the full index TTL.
		NegTTL:     c.TTL,
		ServeStale: true,
		Obs:        s.cfg.Obs,
	})
}

// Search implements Strategy.
func (c *CachedIndex) Search(ctx *SearchContext) ldap.Result {
	partial := false
	// Filter before sorting: the index holds every child's full subtree,
	// and sorting the (usually small) matching subset is far cheaper than
	// sorting the corpus. The filter compiles once per search so the
	// per-entry match over the whole corpus stays allocation-free.
	cf := ctx.Op.Filter.Compile()
	var matched []*ldap.Entry
	for _, child := range ctx.Children {
		entries, err := c.childEntries(ctx.Req, child)
		if err != nil {
			partial = true
			continue
		}
		for _, e := range entries {
			if !e.DN.WithinScope(ctx.Base, ctx.Op.Scope) {
				continue
			}
			if !cf.Matches(e) {
				continue
			}
			matched = append(matched, e)
		}
	}
	ldap.SortEntries(matched)
	for _, e := range matched {
		if err := ctx.send(e); err != nil {
			return sizeOrUnavailable(err)
		}
	}
	res := ldap.Result{Code: ldap.ResultSuccess}
	if partial {
		res.Message = "partial results: some providers unreachable"
	}
	return res
}

// childEntries returns the indexed entry set for one child, re-fetching
// the child's whole subtree when the cached copy has expired. The fetch
// bypasses the server-level query cache (chainUncached) so an entry set is
// never cached twice at different TTLs; ServeStale on the index cache
// keeps serving stale data when the authoritative source is unreachable:
// "users should have as much partial or even inconsistent information as
// is available" (§2.2).
func (c *CachedIndex) childEntries(req *ldap.Request, child Child) ([]*ldap.Entry, error) {
	reg := qcache.Region{
		Owner: child.URL.ServiceKey(),
		Base:  child.ViewSuffix,
		Scope: ldap.ScopeWholeSubtree,
	}
	entries, _, err := c.qc.GetOrFill(reg.Key(nil, 0), reg, child.ExpiresAt,
		func() ([]*ldap.Entry, error) {
			return c.s.chainUncached(req, child, child.ViewSuffix, ldap.ScopeWholeSubtree, nil, nil, 0)
		})
	return entries, err
}

// Flush drops the index (tests and failover drills).
func (c *CachedIndex) Flush() { c.qc.Flush() }

// Entries returns a snapshot of every indexed entry across all children,
// the corpus specialized services (e.g. the matchmaker extension) evaluate
// against.
func (c *CachedIndex) Entries() []*ldap.Entry {
	out := c.qc.Entries()
	ldap.SortEntries(out)
	return out
}

// Referral returns continuation references instead of data: the client is
// redirected to the authoritative GRIS, which is how a GIIS serves data it
// is not allowed to cache or proxy (§10.4: "we can return the name of the
// information provider directly to the client in the form of a LDAP URL
// using the referral mechanisms").
type Referral struct {
	s *Server
}

// NewReferral returns the referral strategy.
func NewReferral() *Referral { return &Referral{} }

// Name implements Strategy.
func (r *Referral) Name() string { return "referral" }

func (r *Referral) attach(s *Server) { r.s = s }

// Search implements Strategy.
func (r *Referral) Search(ctx *SearchContext) ldap.Result {
	var urls []string
	for _, child := range ctx.Children {
		if base, _, ok := translateRegion(ctx.Base, ctx.Op.Scope, child); ok {
			urls = append(urls, child.URL.WithDN(base).String())
		}
	}
	if len(urls) > 0 {
		if err := ctx.W.SendReferral(urls...); err != nil {
			return ldap.Result{Code: ldap.ResultUnavailable, Message: err.Error()}
		}
	}
	return ldap.Result{Code: ldap.ResultSuccess, Referrals: urls}
}

// BloomRouted chains like Chaining but first consults per-child Bloom
// summaries of the child's attribute terms, skipping children that provably
// cannot match conjunctive equality terms of the filter — the §5.1 lossy
// aggregation alternative (after the Service Discovery Service). False
// positives cost a wasted chained query; false negatives cannot occur.
type BloomRouted struct {
	// TTL bounds summary staleness.
	TTL time.Duration

	s *Server
	// summaries caches child summaries by service key.
	summaries summaryCache

	mu sync.Mutex
	// SkippedChildren counts chains avoided by summary misses.
	SkippedChildren int
}

// NewBloomRouted returns the Bloom-routed chaining strategy.
func NewBloomRouted(ttl time.Duration) *BloomRouted {
	return &BloomRouted{TTL: ttl}
}

// Name implements Strategy.
func (b *BloomRouted) Name() string { return "bloom-routed" }

func (b *BloomRouted) attach(s *Server) {
	b.s = s
	b.summaries.ttl = b.TTL
}

// Search implements Strategy.
func (b *BloomRouted) Search(ctx *SearchContext) ldap.Result {
	terms := lowerTerms(ctx.Op.Filter)
	now := b.s.clock.Now()
	partial := false
	var all []*ldap.Entry
	for _, child := range ctx.Children {
		if _, _, ok := translateRegion(ctx.Base, ctx.Op.Scope, child); !ok {
			continue
		}
		if len(terms) > 0 {
			if f := b.summaries.get(child.URL.ServiceKey(), now, func() *bloom.Filter {
				return b.fetchSummary(child)
			}); f != nil && !summaryMayMatch(f, terms) {
				b.mu.Lock()
				b.SkippedChildren++
				b.mu.Unlock()
				continue
			}
		}
		entries, err := b.s.chain(ctx.Req, child, ctx.Base, ctx.Op.Scope, ctx.Op.Filter,
			ctx.Op.Attributes, ctx.Op.SizeLimit)
		if err != nil {
			partial = true
			continue
		}
		all = append(all, entries...)
	}
	ldap.SortEntries(all)
	for _, e := range all {
		if err := ctx.send(e); err != nil {
			return sizeOrUnavailable(err)
		}
	}
	res := ldap.Result{Code: ldap.ResultSuccess}
	if partial {
		res.Message = "partial results: some providers unreachable"
	}
	return res
}

// summaryMayMatch: a conjunctive query can match only if every equality
// term is (possibly) present.
func summaryMayMatch(f *bloom.Filter, terms []string) bool {
	for _, t := range terms {
		if !f.Test(t) {
			return false
		}
	}
	return true
}

// fetchSummary summarizes a child's whole subtree; nil when the child is
// unreachable.
func (b *BloomRouted) fetchSummary(child Child) *bloom.Filter {
	entries, err := b.s.chain(nil, child, child.ViewSuffix, ldap.ScopeWholeSubtree, nil, nil, 0)
	if err != nil {
		return nil
	}
	var terms []string
	for _, e := range entries {
		terms = append(terms, EntryTerms(e)...)
	}
	return newSummary(terms)
}

// summaryCache is the one cache of Bloom summaries, shared by BloomRouted
// (per child) and Sharded (per peer): each source's summary stays fresh for
// ttl. A failed fetch is cached as nil for the ttl too, so an unreachable
// source fails open (the caller queries it anyway) without being re-dialed
// for a summary on every search.
type summaryCache struct {
	ttl time.Duration

	mu sync.Mutex
	m  map[string]cachedSummary
}

type cachedSummary struct {
	filter    *bloom.Filter
	fetchedAt time.Time
}

// get returns key's summary, calling fetch when it is missing or stale.
func (c *summaryCache) get(key string, now time.Time, fetch func() *bloom.Filter) *bloom.Filter {
	c.mu.Lock()
	cs, ok := c.m[key]
	c.mu.Unlock()
	if ok && now.Sub(cs.fetchedAt) < c.ttl {
		return cs.filter
	}
	f := fetch()
	c.mu.Lock()
	if c.m == nil {
		c.m = map[string]cachedSummary{}
	}
	c.m[key] = cachedSummary{filter: f, fetchedAt: now}
	c.mu.Unlock()
	return f
}

// newSummary builds a Bloom summary of terms, sized for their count at a
// 1% false-positive rate.
func newSummary(terms []string) *bloom.Filter {
	f := bloom.NewForCapacity(len(terms), 0.01)
	for _, t := range terms {
		f.Add(t)
	}
	return f
}

// EntryTerms enumerates the lowercase attr=value terms of an entry, the
// vocabulary Bloom summaries index.
func EntryTerms(e *ldap.Entry) []string {
	var out []string
	for _, a := range e.Attrs {
		for _, v := range a.Values {
			out = append(out, lower(a.Name)+"="+lower(v))
		}
	}
	return out
}

func lower(s string) string {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= 'A' && c <= 'Z' {
			return lowerSlow(s)
		}
	}
	return s
}

func lowerSlow(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

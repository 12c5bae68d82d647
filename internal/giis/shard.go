package giis

import (
	"sync"
	"time"

	"mds2/internal/bloom"
	"mds2/internal/grrp"
	"mds2/internal/ldap"
	"mds2/internal/obs"
	"mds2/internal/shard"
)

// ShardMode selects how a sharded directory involves its peers in a search.
type ShardMode int

// Shard modes.
const (
	// ShardProxy chains sub-queries to the owning peers and merges their
	// replies — the client sees one directory.
	ShardProxy ShardMode = iota
	// ShardReferral returns the owning peers as LDAP referrals; the client
	// walks them with grip.Client.SearchFollowingReferrals.
	ShardReferral
)

// Sharded is the partitioned directory tier: this GIIS is one member of a
// consistent-hash ring that splits the registration namespace, each
// registration replicated to Replicas owners. The strategy answers from
// the local partition and involves exactly the owning peers when the query
// names a partition key, falling back to scatter-gather (with Bloom
// pre-filtering and DN dedup) when it does not. Registrations for keys
// this shard does not own are refused at the soft-state registry, which is
// what bounds per-node resident entries near N·Replicas/shards.
type Sharded struct {
	// Ring is the shared shard configuration; Self is this node's member
	// ID on it.
	Ring *shard.Ring
	Self string
	// Replicas is K, the number of owners per registration key (default 2).
	Replicas int
	// KeyAttrs are the partition-key attribute types
	// (shard.DefaultKeyAttrs when empty).
	KeyAttrs []string
	// Mode selects proxy (default) or referral peer involvement.
	Mode ShardMode
	// MaxFanout bounds concurrent chained requests per search; zero means
	// DefaultMaxFanout.
	MaxFanout int
	// SummaryTTL bounds peer-summary staleness (default 30s); SummaryAttrs
	// is the testable vocabulary (shard.DefaultSummaryAttrs when empty).
	SummaryTTL   time.Duration
	SummaryAttrs []string

	s       *Server
	planner *shard.Planner

	mu sync.Mutex
	// Routing index over the local child set, cached against the registry
	// version like Server.Children.
	idxVer   uint64
	idxOK    bool
	byKey    map[string][]Child
	wildcard []Child
	// localSummary caches this shard's own Bloom summary (served to peers
	// over the shard-summary extended operation), also version-keyed.
	localSummary    []byte
	localSummaryVer uint64
	localSummaryOK  bool
	// summaries caches peer summaries by member ID.
	summaries summaryCache

	// Stats, registered under giis_shard_* when the server has an obs
	// registry.
	RoutableSearches obs.Counter // searches routed to owners only
	ScatterSearches  obs.Counter // searches scattered ring-wide
	PeerQueries      obs.Counter // chained sub-queries sent to peers
	PeerFailovers    obs.Counter // owner failures absorbed by a replica
	PeerReferrals    obs.Counter // referral URLs returned to clients
	BloomSkipped     obs.Counter // scatter fan-outs skipped by summaries
	DupDropped       obs.Counter // duplicate entries dropped by DN dedup
}

// DefaultShardSummaryTTL bounds peer-summary staleness when unset.
const DefaultShardSummaryTTL = 30 * time.Second

// NewSharded builds the sharded strategy for one ring member.
func NewSharded(ring *shard.Ring, self string, replicas int) *Sharded {
	return &Sharded{Ring: ring, Self: self, Replicas: replicas}
}

// Name implements Strategy.
func (sh *Sharded) Name() string { return "sharded" }

// Planner exposes the routing decisions (registrars and experiments place
// registrations with it).
func (sh *Sharded) Planner() *shard.Planner { return sh.planner }

func (sh *Sharded) attach(s *Server) {
	sh.s = s
	if sh.Replicas < 1 {
		sh.Replicas = 2
	}
	if sh.SummaryTTL <= 0 {
		sh.SummaryTTL = DefaultShardSummaryTTL
	}
	if len(sh.SummaryAttrs) == 0 {
		sh.SummaryAttrs = shard.DefaultSummaryAttrs
	}
	sh.summaries.ttl = sh.SummaryTTL
	sh.planner = shard.NewPlanner(sh.Ring, sh.Self, sh.Replicas, s.cfg.Suffix, sh.KeyAttrs)

	// Ownership enforcement: registrations hashing to other shards are
	// refused at the registry, so a misdirected (or broadcast-storm) stream
	// cannot inflate this node's resident set.
	s.receiver.Registry.SetOwns(func(_ string, payload any) bool {
		m, ok := payload.(*grrp.Message)
		if !ok {
			return false
		}
		return sh.planner.OwnsRegistration(m.SuffixDN)
	})

	// The shard-summary extended operation serves this shard's Bloom
	// summary to peers.
	if s.cfg.Extensions == nil {
		s.cfg.Extensions = map[string]Extension{}
	}
	s.cfg.Extensions[shard.OIDShardSummary] = func(*ldap.Request, []byte) ([]byte, error) {
		return sh.localSummaryBytes(), nil
	}

	if s.cfg.Obs != nil {
		s.cfg.Obs.RegisterCounter("giis_shard_routable_total", &sh.RoutableSearches)
		s.cfg.Obs.RegisterCounter("giis_shard_scatter_total", &sh.ScatterSearches)
		s.cfg.Obs.RegisterCounter("giis_shard_peer_queries_total", &sh.PeerQueries)
		s.cfg.Obs.RegisterCounter("giis_shard_peer_failovers_total", &sh.PeerFailovers)
		s.cfg.Obs.RegisterCounter("giis_shard_peer_referrals_total", &sh.PeerReferrals)
		s.cfg.Obs.RegisterCounter("giis_shard_bloom_skipped_total", &sh.BloomSkipped)
		s.cfg.Obs.RegisterCounter("giis_shard_dup_dropped_total", &sh.DupDropped)
		reg := s.receiver.Registry
		s.cfg.Obs.CounterFunc("giis_shard_not_owned_total", func() int64 {
			return int64(reg.NotOwnedTotal())
		})
	}
}

// index returns the key-routed view of the local child set, rebuilt only
// when the registry version moves.
func (sh *Sharded) index(children []Child) (map[string][]Child, []Child) {
	ver := sh.s.receiver.Registry.Version()
	sh.mu.Lock()
	if sh.idxOK && sh.idxVer == ver {
		byKey, wildcard := sh.byKey, sh.wildcard
		sh.mu.Unlock()
		return byKey, wildcard
	}
	sh.mu.Unlock()
	byKey := map[string][]Child{}
	var wildcard []Child
	for _, c := range children {
		if key, keyed := sh.planner.RegistrationKeyDN(c.Suffix); keyed {
			byKey[key] = append(byKey[key], c)
		} else {
			wildcard = append(wildcard, c)
		}
	}
	sh.mu.Lock()
	sh.byKey, sh.wildcard, sh.idxVer, sh.idxOK = byKey, wildcard, ver, true
	sh.mu.Unlock()
	return byKey, wildcard
}

// peerChild wraps a ring member as a chain target. Peers share this
// directory's suffix, so region translation and DN grafting are identity.
func (sh *Sharded) peerChild(m shard.Member) Child {
	return Child{URL: m.URL, Suffix: sh.s.cfg.Suffix, ViewSuffix: sh.s.cfg.Suffix, MDSType: "giis"}
}

var shardLocalControl = ldap.Control{OID: shard.OIDShardLocal}

// Search implements Strategy.
func (sh *Sharded) Search(ctx *SearchContext) ldap.Result {
	// A peer's sub-query carries the shard-local control: answer from the
	// local partition only, never fan out again — this one-hop rule is what
	// terminates proxy chains on a ring.
	localOnly := false
	if ctx.Req != nil {
		_, localOnly = ldap.FindControl(ctx.Req.Controls, shard.OIDShardLocal)
	}

	plan := sh.planner.Plan(ctx.Base, ctx.Op.Filter)

	// Select the local children the region can touch. Routable regions —
	// whether the query arrived from a client or as a peer's sub-query —
	// read the key index instead of scanning the whole partition: an
	// owner holding hundreds of thousands of residents must not pay a
	// per-child region check for a lookup that names one key.
	var local []Child
	if plan.Routable {
		byKey, wildcard := sh.index(ctx.Children)
		for _, k := range plan.Keys {
			local = append(local, byKey[k]...)
		}
		local = append(local, wildcard...)
	} else {
		// Scatter consults the whole local partition; translateRegion
		// below still prunes children outside the region.
		local = ctx.Children
	}

	if localOnly {
		return sh.searchLocal(ctx, local)
	}
	if plan.Routable {
		sh.RoutableSearches.Inc()
	} else {
		sh.ScatterSearches.Inc()
	}
	if sh.Mode == ShardReferral {
		return sh.searchReferral(ctx, local, &plan)
	}
	return sh.searchProxy(ctx, local, &plan)
}

// dedupSender streams entries to the client exactly once per DN. When the
// search carries a size limit, entries buffer and sort globally first (the
// limit imposes an order on which survive); otherwise each batch streams
// as it arrives, sorted within itself.
type dedupSender struct {
	ctx      *SearchContext
	sh       *Sharded
	seen     map[string]struct{}
	ordered  bool
	buffered []*ldap.Entry
}

func (d *dedupSender) add(entries []*ldap.Entry) error {
	fresh := entries[:0]
	for _, e := range entries {
		k := e.DN.Normalize()
		if _, dup := d.seen[k]; dup {
			d.sh.DupDropped.Inc()
			continue
		}
		d.seen[k] = struct{}{}
		fresh = append(fresh, e)
	}
	if d.ordered {
		d.buffered = append(d.buffered, fresh...)
		return nil
	}
	ldap.SortEntries(fresh)
	for _, e := range fresh {
		if err := d.ctx.send(e); err != nil {
			return err
		}
	}
	return nil
}

func (d *dedupSender) flush() error {
	if !d.ordered {
		return nil
	}
	ldap.SortEntries(d.buffered)
	for _, e := range d.buffered {
		if err := d.ctx.send(e); err != nil {
			return err
		}
	}
	return nil
}

func (sh *Sharded) newSender(ctx *SearchContext) *dedupSender {
	return &dedupSender{ctx: ctx, sh: sh, seen: map[string]struct{}{}, ordered: ctx.Op.SizeLimit > 0}
}

// searchLocal answers entirely from the local partition (peer sub-queries
// and the local half of every mode).
func (sh *Sharded) searchLocal(ctx *SearchContext, local []Child) ldap.Result {
	replies, n := sh.fanout(ctx, sh.localJobs(ctx, local))
	sender := sh.newSender(ctx)
	partial := false
	for done := 0; done < n; done++ {
		r := <-replies
		if r.err != nil {
			partial = true
			continue
		}
		if err := sender.add(r.entries); err != nil {
			return sizeOrUnavailable(err)
		}
	}
	if err := sender.flush(); err != nil {
		return sizeOrUnavailable(err)
	}
	res := ldap.Result{Code: ldap.ResultSuccess}
	if partial {
		res.Message = "partial results: some providers unreachable"
	}
	return res
}

type shardReply struct {
	entries []*ldap.Entry
	err     error
}

// localJobs builds one chained sub-query per relevant local child.
func (sh *Sharded) localJobs(ctx *SearchContext, local []Child) []func() shardReply {
	jobs := make([]func() shardReply, 0, len(local))
	for _, child := range local {
		if _, _, ok := translateRegion(ctx.Base, ctx.Op.Scope, child); !ok {
			continue
		}
		child := child
		jobs = append(jobs, func() shardReply {
			entries, err := sh.s.chain(ctx.Req, child, ctx.Base, ctx.Op.Scope, ctx.Op.Filter,
				ctx.Op.Attributes, ctx.Op.SizeLimit)
			return shardReply{entries, err}
		})
	}
	return jobs
}

// fanout runs jobs on a bounded worker pool (the Chaining pattern: closed
// job channel, fully buffered replies so no worker ever blocks).
func (sh *Sharded) fanout(ctx *SearchContext, fns []func() shardReply) (<-chan shardReply, int) {
	jobs := make(chan func() shardReply, len(fns))
	for _, fn := range fns {
		jobs <- fn
	}
	close(jobs)
	replies := make(chan shardReply, len(fns))
	workers := sh.MaxFanout
	if workers <= 0 {
		workers = DefaultMaxFanout
	}
	if workers > len(fns) {
		workers = len(fns)
	}
	for i := 0; i < workers; i++ {
		go func() {
			for fn := range jobs {
				replies <- fn()
			}
		}()
	}
	if len(fns) > 0 {
		sh.s.hFanout.ObserveValue(int64(len(fns)))
	}
	return replies, len(fns)
}

// searchProxy merges the local partition with chained peer sub-queries.
func (sh *Sharded) searchProxy(ctx *SearchContext, local []Child, plan *shard.Plan) ldap.Result {
	fns := sh.localJobs(ctx, local)

	if plan.Routable {
		// One job per key, failing over through the key's owners in ring
		// order: if the primary is down its replica still answers, which is
		// the K-replication availability argument.
		for _, key := range plan.Keys {
			owners := plan.OwnersFor(key)
			if len(owners) == 0 {
				continue
			}
			fns = append(fns, func() shardReply {
				var lastErr error
				for i, owner := range owners {
					if i > 0 {
						sh.PeerFailovers.Inc()
					}
					sh.PeerQueries.Inc()
					entries, err := sh.s.chainWith(ctx.Req, sh.peerChild(owner), ctx.Base,
						ctx.Op.Scope, ctx.Op.Filter, ctx.Op.Attributes, ctx.Op.SizeLimit,
						[]ldap.Control{shardLocalControl})
					if err == nil {
						return shardReply{entries, nil}
					}
					lastErr = err
				}
				return shardReply{nil, lastErr}
			})
		}
	} else {
		// Scatter: every other ring member, minus those whose Bloom summary
		// proves they cannot match.
		terms := shard.QueryTerms(ctx.Op.Filter, sh.SummaryAttrs)
		now := sh.s.clock.Now()
		for _, m := range plan.Remote {
			if len(terms) > 0 {
				if f := sh.summaries.get(m.ID, now, func() *bloom.Filter {
					return sh.fetchSummary(m)
				}); f != nil && !summaryMayMatch(f, terms) {
					sh.BloomSkipped.Inc()
					continue
				}
			}
			m := m
			fns = append(fns, func() shardReply {
				sh.PeerQueries.Inc()
				entries, err := sh.s.chainWith(ctx.Req, sh.peerChild(m), ctx.Base,
					ctx.Op.Scope, ctx.Op.Filter, ctx.Op.Attributes, ctx.Op.SizeLimit,
					[]ldap.Control{shardLocalControl})
				return shardReply{entries, err}
			})
		}
	}

	replies, n := sh.fanout(ctx, fns)
	sender := sh.newSender(ctx)
	partial := false
	for done := 0; done < n; done++ {
		r := <-replies
		if r.err != nil {
			partial = true
			continue
		}
		if err := sender.add(r.entries); err != nil {
			return sizeOrUnavailable(err)
		}
	}
	if err := sender.flush(); err != nil {
		return sizeOrUnavailable(err)
	}
	res := ldap.Result{Code: ldap.ResultSuccess}
	if partial {
		res.Message = "partial results: some shards unreachable"
	}
	return res
}

// searchReferral serves the local partition and refers the client to the
// peers that may hold the rest; grip.Client.SearchFollowingReferrals walks
// them with loop and duplicate protection.
func (sh *Sharded) searchReferral(ctx *SearchContext, local []Child, plan *shard.Plan) ldap.Result {
	res := sh.searchLocal(ctx, local)
	if res.Code != ldap.ResultSuccess {
		return res
	}
	var urls []string
	if plan.Routable {
		// Refer to every owner of every remote key: the client dedups
		// replicated entries and an unreachable primary is covered by its
		// replica.
		for _, key := range plan.Keys {
			for _, m := range plan.OwnersFor(key) {
				urls = append(urls, m.URL.WithDN(ctx.Base).String())
			}
		}
	} else {
		for _, m := range plan.Remote {
			urls = append(urls, m.URL.WithDN(ctx.Base).String())
		}
	}
	urls = dedupSorted(urls)
	if len(urls) > 0 {
		sh.PeerReferrals.Add(int64(len(urls)))
		if err := ctx.W.SendReferral(urls...); err != nil {
			return ldap.Result{Code: ldap.ResultUnavailable, Message: err.Error()}
		}
	}
	res.Referrals = urls
	return res
}

func dedupSorted(in []string) []string {
	if len(in) < 2 {
		return in
	}
	seen := make(map[string]struct{}, len(in))
	out := in[:0]
	for _, s := range in {
		if _, dup := seen[s]; dup {
			continue
		}
		seen[s] = struct{}{}
		out = append(out, s)
	}
	return out
}

// localSummaryBytes renders this shard's Bloom summary of its children's
// namespace terms, cached against the registry version.
func (sh *Sharded) localSummaryBytes() []byte {
	ver := sh.s.receiver.Registry.Version()
	sh.mu.Lock()
	if sh.localSummaryOK && sh.localSummaryVer == ver {
		b := sh.localSummary
		sh.mu.Unlock()
		return b
	}
	sh.mu.Unlock()
	children := sh.s.Children()
	var terms []string
	for _, c := range children {
		terms = append(terms, shard.SuffixTerms(c.Suffix)...)
	}
	b, err := newSummary(terms).MarshalBinary()
	if err != nil {
		return nil
	}
	sh.mu.Lock()
	sh.localSummary, sh.localSummaryVer, sh.localSummaryOK = b, ver, true
	sh.mu.Unlock()
	return b
}

// fetchSummary fetches a peer's Bloom summary over the shard-summary
// extended operation; nil when the peer is unreachable.
func (sh *Sharded) fetchSummary(m shard.Member) *bloom.Filter {
	pe, err := sh.s.acquire(m.URL)
	if err != nil {
		return nil
	}
	resp, err := pe.c.Extended(shard.OIDShardSummary, nil)
	if err != nil {
		sh.s.evict(pe)
		sh.s.release(pe)
		return nil
	}
	sh.s.release(pe)
	if err := resp.Result.Err(); err != nil {
		return nil
	}
	f, err := bloom.UnmarshalBinary(resp.Value)
	if err != nil {
		return nil
	}
	return f
}

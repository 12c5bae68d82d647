package gris

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mds2/internal/ldap"
	"mds2/internal/softstate"
)

// countingBackend is a cacheable backend safe for concurrent invocation,
// counting provider executions and optionally charging a fixed cost.
type countingBackend struct {
	suffix ldap.DN
	ttl    time.Duration
	cost   time.Duration
	calls  atomic.Int64
}

func (b *countingBackend) Name() string            { return "counting" }
func (b *countingBackend) Suffix() ldap.DN         { return b.suffix }
func (b *countingBackend) Attributes() []string    { return nil }
func (b *countingBackend) CacheTTL() time.Duration { return b.ttl }
func (b *countingBackend) Entries(*Query) ([]*ldap.Entry, error) {
	b.calls.Add(1)
	if b.cost > 0 {
		time.Sleep(b.cost)
	}
	return []*ldap.Entry{ldap.NewEntry(b.suffix).
		Add("objectclass", "computer").
		Add("hn", "hostX")}, nil
}

// nullSink discards entries; safe for concurrent use.
type nullSink struct{}

func (nullSink) SendEntry(*ldap.Entry, ...ldap.Control) error { return nil }
func (nullSink) SendReferral(...string) error                 { return nil }

// TestCacheStampedeCoalesced is the regression test for the TTL-boundary
// stampede: N concurrent queries against an expired cacheable backend must
// produce exactly one provider invocation, with every waiter sharing the
// leader's result.
func TestCacheStampedeCoalesced(t *testing.T) {
	const clients = 32
	backend := &countingBackend{suffix: hostDN(), ttl: time.Hour, cost: 20 * time.Millisecond}
	s := New(Config{Suffix: hostDN(), Clock: softstate.NewFakeClock()})
	s.Register(backend)

	req := &ldap.SearchRequest{BaseDN: hostDN().String(), Scope: ldap.ScopeWholeSubtree}
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	counts := make(chan int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			w := &sink{}
			res := s.Search(anonReq(), req, w)
			errs <- res.Err()
			counts <- len(w.entries)
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	close(counts)
	for err := range errs {
		if err != nil {
			t.Fatalf("concurrent search failed: %v", err)
		}
	}
	for n := range counts {
		if n != 1 {
			t.Fatalf("waiter saw %d entries, want 1", n)
		}
	}
	if got := backend.calls.Load(); got != 1 {
		t.Errorf("backend executed %d times under stampede, want 1", got)
	}
	if got := s.Invocations.Value(); got != 1 {
		t.Errorf("Invocations = %d, want 1", got)
	}
	// All queries are accounted for: one invocation, the rest served from
	// the shared flight or the refilled cache.
	if hits := s.CacheHits.Value(); hits != clients-1 {
		t.Errorf("CacheHits = %d, want %d", hits, clients-1)
	}
}

// TestCacheExpiryReinvokes makes sure coalescing does not turn into
// serving-stale-forever: after the TTL passes, the next query invokes the
// provider again.
func TestCacheExpiryReinvokes(t *testing.T) {
	clock := softstate.NewFakeClock()
	backend := &countingBackend{suffix: hostDN(), ttl: 10 * time.Second}
	s := New(Config{Suffix: hostDN(), Clock: clock})
	s.Register(backend)
	req := &ldap.SearchRequest{BaseDN: hostDN().String(), Scope: ldap.ScopeWholeSubtree}

	s.Search(anonReq(), req, nullSink{})
	s.Search(anonReq(), req, nullSink{})
	if got := backend.calls.Load(); got != 1 {
		t.Fatalf("calls = %d, want 1 (second query cached)", got)
	}
	clock.Advance(11 * time.Second)
	s.Search(anonReq(), req, nullSink{})
	if got := backend.calls.Load(); got != 2 {
		t.Fatalf("calls = %d, want 2 after TTL expiry", got)
	}
}

// BenchmarkCacheStampede drives parallel queries whose TTL keeps expiring
// under a provider charging a real execution cost: with singleflight each
// expiry costs one invocation; without it, every concurrent miss would pay
// (and queue behind) the provider.
func BenchmarkCacheStampede(b *testing.B) {
	backend := &countingBackend{suffix: hostDN(), ttl: 10 * time.Millisecond, cost: time.Millisecond}
	s := New(Config{Suffix: hostDN()})
	s.Register(backend)
	req := &ldap.SearchRequest{BaseDN: hostDN().String(), Scope: ldap.ScopeWholeSubtree}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if res := s.Search(anonReq(), req, nullSink{}); res.Code != ldap.ResultSuccess {
				b.Fatal(res)
			}
		}
	})
	b.ReportMetric(float64(backend.calls.Load()), "invocations")
}

// gatedBackend is a cacheable backend whose invocations block until release
// closes, then return err (nil: no entries). It counts executions.
type gatedBackend struct {
	ttl     time.Duration
	err     error
	release chan struct{}
	calls   atomic.Int64
}

func (b *gatedBackend) Name() string            { return "gated" }
func (b *gatedBackend) Suffix() ldap.DN         { return hostDN() }
func (b *gatedBackend) Attributes() []string    { return nil }
func (b *gatedBackend) CacheTTL() time.Duration { return b.ttl }
func (b *gatedBackend) Entries(*Query) ([]*ldap.Entry, error) {
	b.calls.Add(1)
	<-b.release
	return nil, b.err
}

// TestFailingStampedeNotCached: a stampede against a failing cacheable
// provider runs it once, every waiter shares the failure (a partial
// result), and — because errors are never cached — the next query
// re-invokes.
func TestFailingStampedeNotCached(t *testing.T) {
	const clients = 32
	backend := &gatedBackend{ttl: time.Hour, err: errors.New("provider down"),
		release: make(chan struct{})}
	s := New(Config{Suffix: hostDN(), Clock: softstate.NewFakeClock()})
	s.Register(backend)
	req := &ldap.SearchRequest{BaseDN: hostDN().String(), Scope: ldap.ScopeWholeSubtree}

	var done sync.WaitGroup
	results := make(chan ldap.Result, clients)
	for i := 0; i < clients; i++ {
		done.Add(1)
		go func() {
			defer done.Done()
			results <- s.Search(anonReq(), req, nullSink{})
		}()
	}
	// Wait until every client is inside Search; from there each is a few
	// non-blocking steps from joining the flight, so a short hold gets all
	// of them there before the provider returns.
	for s.Queries.Value() < clients {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	close(backend.release)
	done.Wait()
	close(results)
	for res := range results {
		if res.Code != ldap.ResultSuccess || res.Message == "" {
			t.Fatalf("waiter result = %+v, want success flagged partial", res)
		}
	}
	if got := backend.calls.Load(); got != 1 {
		t.Fatalf("backend executed %d times under stampede, want 1", got)
	}
	if got := s.Coalesced.Value(); got != clients-1 {
		t.Errorf("Coalesced = %d, want %d", got, clients-1)
	}
	if got := s.CacheHits.Value(); got != 0 {
		t.Errorf("CacheHits = %d, want 0 (a shared failure is not a hit)", got)
	}
	s.Search(anonReq(), req, nullSink{})
	if got := backend.calls.Load(); got != 2 {
		t.Fatalf("backend executed %d times after the failed flight, want 2 (errors are not cached)", got)
	}
}

// TestEmptyResultCachedForFullTTL: an empty provider result is cached like
// any other, for the backend's whole TTL — not a shorter negative TTL.
func TestEmptyResultCachedForFullTTL(t *testing.T) {
	clock := softstate.NewFakeClock()
	backend := &gatedBackend{ttl: 10 * time.Second, release: make(chan struct{})}
	close(backend.release)
	s := New(Config{Suffix: hostDN(), Clock: clock})
	s.Register(backend)
	req := &ldap.SearchRequest{BaseDN: hostDN().String(), Scope: ldap.ScopeWholeSubtree}

	s.Search(anonReq(), req, nullSink{})
	clock.Advance(9 * time.Second)
	s.Search(anonReq(), req, nullSink{})
	if got := backend.calls.Load(); got != 1 {
		t.Fatalf("calls = %d within TTL, want 1 (empty result cached)", got)
	}
	clock.Advance(2 * time.Second)
	s.Search(anonReq(), req, nullSink{})
	if got := backend.calls.Load(); got != 2 {
		t.Fatalf("calls = %d after TTL, want 2", got)
	}
}

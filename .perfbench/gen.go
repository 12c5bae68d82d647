package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mds2/internal/ldap"
)

// kind is one operation class of a workload's mix.
type kind int

const (
	kSearch   kind = iota // GRIP data search (the workload's main query)
	kLookup               // one-level child-index lookup returning one entry
	kRegister             // GRRP registration refresh carried as an LDAP add
	numKinds
)

var kindNames = [numKinds]string{"search", "lookup", "register"}

// op is one scheduled request: when it is due (offset from the start of
// its window), what it is, and a workload-specific selector (query
// variant, child, or registration key).
type op struct {
	at   time.Duration
	kind kind
	arg  int
}

// mix is a workload's offered load: a rate per kind (ops/s) and the size
// of each kind's selector space.
type mix struct {
	rates [numKinds]float64
	args  [numKinds]int
}

func (m mix) total(mult float64) float64 {
	t := 0.0
	for _, r := range m.rates {
		t += r * mult
	}
	return t
}

// deckSize is the block over which a schedule's kinds match the mix
// exactly; every mix's rates divide into it.
const deckSize = 120

// schedule draws an open-loop Poisson arrival process at mult times the
// mix's total rate for dur.
func schedule(seed int64, m mix, mult float64, dur time.Duration) []op {
	total := m.total(mult)
	return arrivals(seed, m, dur, func(c float64) float64 { return c / total })
}

// rampSchedule draws a Poisson process whose rate rises linearly from lo
// to hi times the mix's total rate over dur.
func rampSchedule(seed int64, m mix, lo, hi float64, dur time.Duration) []op {
	a, b := m.total(lo), (m.total(hi)-m.total(lo))/dur.Seconds()
	return arrivals(seed, m, dur, func(c float64) float64 { return (math.Sqrt(a*a+2*b*c) - a) / b })
}

// arrivals generates a schedule by time rescaling: unit-rate exponential
// gaps accumulate to c, and at(c) maps c to seconds (the inverse of the
// cumulative rate). Kinds are dealt from a shuffled deck holding each
// kind in proportion to its rate, so every window carries the mix's exact
// proportions and only arrival times and selectors are random; selectors
// are uniform. The same seed always yields the same schedule.
func arrivals(seed int64, m mix, dur time.Duration, at func(c float64) float64) []op {
	rng := rand.New(rand.NewSource(seed))
	var deck []kind
	for k := kind(0); k < numKinds; k++ {
		for i := 0; i < int(math.Round(m.rates[k]/m.total(1)*deckSize)); i++ {
			deck = append(deck, k)
		}
	}
	var ops []op
	c := 0.0
	for i := 0; ; i++ {
		c += rng.ExpFloat64()
		t := at(c)
		if t >= dur.Seconds() {
			return ops
		}
		if i%len(deck) == 0 {
			rng.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
		}
		k := deck[i%len(deck)]
		a := 0
		if m.args[k] > 0 {
			a = rng.Intn(m.args[k])
		}
		ops = append(ops, op{at: time.Duration(t * float64(time.Second)), kind: k, arg: a})
	}
}

// outcome classifies one completed (or never sent) operation.
type outcome int

const (
	outOK      outcome = iota
	outError           // transport error or unexpected result code
	outShed            // refused by overload control (busy / unavailable)
	outWrong           // answered, but not with the expected entries
	outDropped         // never sent: the generator's in-flight cap was hit
)

// sample is one operation's record: latency from its intended send time
// (coordinated-omission corrected), round trip from its actual send time,
// and entries received.
type sample struct {
	at      time.Duration // due offset within the window
	kind    kind
	out     outcome
	lat     time.Duration
	rtt     time.Duration
	entries int
}

// runResult is one paced window.
type runResult struct {
	samples  []sample
	lags     []time.Duration // how late the pacer released each op
	inflight []int           // ops outstanding (in flight or overdue) when each op was released
	span     time.Duration   // schedule length
	wrong    []string        // first few wrong-answer descriptions
}

// maxInflight caps outstanding operations; arrivals beyond it are dropped
// and counted rather than queued inside the generator.
const maxInflight = 4096

// executor runs one operation on a client connection and verifies the
// answer, returning the entries received, the outcome, and for outWrong a
// description.
type executor func(c *ldap.Client, o op, reqID uint64) (int, outcome, string)

// pace releases ops on schedule from a single pacer goroutine. Each op
// runs on its own goroutine over the connection clients[i%len(clients)],
// so LDAP message IDs multiplex on at most len(clients) connections. With
// stopAt > 0 the pacer stops releasing once that many ops are outstanding
// and the result covers only the ops released.
func pace(ops []op, span time.Duration, clients []*ldap.Client, exec executor, reqBase uint64, stopAt int) *runResult {
	res := &runResult{samples: make([]sample, len(ops)), lags: make([]time.Duration, len(ops)),
		inflight: make([]int, len(ops)), span: span}
	var (
		wg       sync.WaitGroup
		inflight atomic.Int64
		wrongMu  sync.Mutex
	)
	start := time.Now()
	late, released := 0, len(ops)
	for i := range ops {
		due := start.Add(ops[i].at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		res.lags[i] = sent.Sub(due)
		// Outstanding work counts ops already due but not yet released: a
		// pacer starved of CPU holds the backlog itself.
		for late < len(ops) && ops[late].at <= sent.Sub(start) {
			late++
		}
		n := int(inflight.Load())
		res.inflight[i] = n + late - i - 1
		if stopAt > 0 && res.inflight[i] >= stopAt {
			released = i
			break
		}
		if n >= maxInflight {
			res.samples[i] = sample{at: ops[i].at, kind: ops[i].kind, out: outDropped}
			continue
		}
		inflight.Add(1)
		wg.Add(1)
		go func(i int, due, sent time.Time) {
			defer wg.Done()
			defer inflight.Add(-1)
			n, out, why := exec(clients[i%len(clients)], ops[i], reqBase+uint64(i))
			done := time.Now()
			res.samples[i] = sample{at: ops[i].at, kind: ops[i].kind, out: out, lat: done.Sub(due),
				rtt: done.Sub(sent), entries: n}
			if out == outWrong {
				wrongMu.Lock()
				if len(res.wrong) < 5 {
					res.wrong = append(res.wrong, why)
				}
				wrongMu.Unlock()
			}
		}(i, due, sent)
	}
	wg.Wait()
	res.samples, res.lags, res.inflight = res.samples[:released], res.lags[:released], res.inflight[:released]
	return res
}

// knee scans a ramp's ops in buckets of due time and returns the start of
// the first run of kneeRun consecutive buckets where the system did not
// keep up: some kind's p99 over the limit, more than 1% of ops failed, or
// a standing backlog — the bucket's median count of outstanding ops, which
// a momentary burst does not move — above 16 ops plus 10 ms of arrivals.
// Requiring a run of failing buckets keeps a host stall of a few hundred
// milliseconds from passing for saturation, which does not recover. rate
// gives the offered ops/s at a due time. It returns the ramp's end when no
// such run occurs, and says which condition started the run.
func (r *runResult) knee(limit time.Duration, rate func(time.Duration) float64) (time.Duration, string) {
	const bucket, kneeRun = 250 * time.Millisecond, 3
	var first time.Duration
	var firstWhy string
	failing := 0
	for from := time.Duration(0); from < r.span; from += bucket {
		why := r.bucketFailure(from, from+bucket, limit, rate(from+bucket))
		if why == "" {
			failing = 0
			continue
		}
		if failing == 0 {
			first, firstWhy = from, why
		}
		if failing++; failing == kneeRun {
			return first, firstWhy
		}
	}
	if failing > 0 {
		return first, firstWhy
	}
	return r.span, "ramp end reached"
}

// bucketFailure says why the ops due in [from, to) show the system not
// keeping up at the given offered rate, or returns "".
func (r *runResult) bucketFailure(from, to, limit time.Duration, rate float64) string {
	var lat [numKinds][]time.Duration
	var backlog []time.Duration
	failed := 0
	for i, s := range r.samples {
		if s.at < from || s.at >= to {
			continue
		}
		if s.out != outOK {
			failed++
		}
		lat[s.kind] = append(lat[s.kind], s.lat)
		backlog = append(backlog, time.Duration(r.inflight[i]))
	}
	switch {
	case len(backlog) == 0:
		return "pacer stopped on a runaway backlog"
	case float64(failed) > 0.01*float64(len(backlog)):
		return fmt.Sprintf("%d of %d failed", failed, len(backlog))
	case float64(median(backlog)) > 16+rate*0.01:
		return fmt.Sprintf("standing backlog %d", median(backlog))
	}
	for k := range lat {
		sort.Slice(lat[k], func(i, j int) bool { return lat[k][i] < lat[k][j] })
		if p := quantile(lat[k], 0.99); p > limit {
			return fmt.Sprintf("%s p99 %v", kindNames[k], p)
		}
	}
	return ""
}

// counts tallies outcomes.
type counts struct {
	attempted, ok, errors, shed, wrong, dropped int
	entries                                     int64
}

func (r *runResult) counts() counts {
	var c counts
	for _, s := range r.samples {
		c.attempted++
		c.entries += int64(s.entries)
		switch s.out {
		case outOK:
			c.ok++
		case outError:
			c.errors++
		case outShed:
			c.shed++
		case outWrong:
			c.wrong++
		case outDropped:
			c.dropped++
		}
	}
	return c
}

func (c counts) failed() int { return c.errors + c.shed + c.wrong + c.dropped }

var outcomeNames = [...]string{outOK: "ok", outError: "error", outShed: "shed", outWrong: "wrong", outDropped: "dropped"}

// failures describes the failed operations by kind and outcome, or
// returns "" when none failed.
func (r *runResult) failures() string {
	var n [numKinds][len(outcomeNames)]int
	for _, s := range r.samples {
		n[s.kind][s.out]++
	}
	var parts []string
	for k := range n {
		for o := outError; o < outcome(len(outcomeNames)); o++ {
			if n[k][o] > 0 {
				parts = append(parts, fmt.Sprintf("%s %s %d", kindNames[k], outcomeNames[o], n[k][o]))
			}
		}
	}
	return strings.Join(parts, ", ")
}

// latencies returns the sorted corrected latencies of one kind. A failed
// operation counts as missing any latency limit, so it sorts last.
func (r *runResult) latencies(k kind) []time.Duration {
	var out []time.Duration
	for _, s := range r.samples {
		if s.kind != k {
			continue
		}
		if s.out != outOK {
			out = append(out, time.Duration(math.MaxInt64))
			continue
		}
		out = append(out, s.lat)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantile is the nearest-rank quantile of a sorted slice.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// lagP99 is the 99th percentile of how late the pacer released ops.
func (r *runResult) lagP99() time.Duration {
	l := append([]time.Duration(nil), r.lags...)
	sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	return quantile(l, 0.99)
}

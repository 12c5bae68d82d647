// Command perfbench is the repository's benchmark: it stands up one
// workload's MDS-2 topology in-process over loopback TCP, drives it with an
// open-loop Poisson generator, checks every answer, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as one JSON
// object on the last line of standard output. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"mds2/internal/grrp"
	"mds2/internal/ldap"
)

// Run-shape constants shared by both modes.
const (
	setupReps   = 21 // set-ups per untraced run; setup_s is their median
	recoverReps = 40 // crash/restart cycles; recovery_ms is their median
	maxLagP99   = 25 * time.Millisecond
	rampLen     = 8 * time.Second // max_qps probe ramp length
	rampBase    = 2               // the ramp starts at this multiple of the nominal rate
	rampTop     = 16              // and ends at this one
	rampReps    = 4               // ramps per traced run; max_qps is their median
	rampStop    = 128             // outstanding ops at which a ramp stops
	workDir     = ".bench_build"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's state: correctness problems found anywhere
// (warm-up, window, probe, recovery), and health flags.
type run struct {
	w       *workload
	seed    int64
	window  time.Duration
	warmup  time.Duration // paced warm-up before the first timed slice
	rampDur time.Duration // length of one max_qps ramp
	wrong   []string
	invalid string
}

func newRun(w *workload, seed int64, window time.Duration) *run {
	return &run{w: w, seed: seed, window: window, warmup: 2 * time.Second, rampDur: rampLen}
}

// Schedule streams: each paced stretch draws its own schedule, seeded from
// the run's seed, the stream, and the stretch's index.
const (
	streamWarm = iota + 1
	streamWindow
	streamRamp
)

func (r *run) seedFor(stream, i int) int64 { return r.seed*1_000_003 + int64(stream)*1009 + int64(i) }

func (r *run) noteWrong(rr *runResult) {
	r.wrong = append(r.wrong, rr.wrong...)
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed for the generated schedule and operations")
	seconds := flag.Int("seconds", 10, "measured window length in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	r := newRun(w, *seed, time.Duration(*seconds)*time.Second)
	var res *result
	var err error
	if *trace == 1 {
		res, err = r.traced()
	} else {
		res, err = r.untraced()
	}
	if err != nil {
		fatal(err)
	}
	for _, why := range r.wrong {
		fmt.Fprintln(os.Stderr, "perfbench: wrong answer:", why)
	}
	res.Correct = len(r.wrong) == 0
	printTable(os.Stderr, res)
	env, _ := json.Marshal(map[string]any{"env": r.env(*trace)})
	fmt.Println(string(env))
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(3)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// setup builds the workload's topology (traced when t is non-nil), opens
// the generator's nproc connections, registers the front directory's
// children over them, and warms every read path with one checked query.
func (r *run) setup(t *tracer) (*topology, []*ldap.Client, error) {
	tp := &topology{w: r.w, t: t}
	if err := r.w.build(tp); err != nil {
		tp.close()
		return nil, nil, err
	}
	clients, err := genDialN(tp.front.addr, nprocs())
	if err != nil {
		tp.close()
		return nil, nil, err
	}
	fail := func(err error) (*topology, []*ldap.Client, error) {
		genCloseAll(clients)
		tp.close()
		return nil, nil, err
	}
	if err := register(clients, tp.frontRegs); err != nil {
		return fail(err)
	}
	for _, c := range clients {
		if err := tp.verifyOnce(c); err != nil {
			return fail(fmt.Errorf("set-up check: %v", err))
		}
	}
	return tp, clients, nil
}

// window is one timed, paced measurement with its process-wide costs.
type window struct {
	*runResult
	cpu     time.Duration
	mallocs uint64
}

// warm runs the nominal mix for d, untimed.
func (r *run) warm(tp *topology, clients []*ldap.Client, i int, d time.Duration) {
	r.noteWrong(pace(schedule(r.seedFor(streamWarm, i), r.w.mix, 1, d), d, clients, tp.exec, 0, 0))
}

// timed forces a GC, then runs a timed window of length d at the nominal
// rate.
func (r *run) timed(tp *topology, clients []*ldap.Client, d time.Duration, i int) *window {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	rr := pace(schedule(r.seedFor(streamWindow, i), r.w.mix, 1, d), d, clients, tp.exec, 1, 0)
	cpu := cpuTime() - c0
	runtime.ReadMemStats(&m1)
	r.noteWrong(rr)
	if f := rr.failures(); f != "" {
		fmt.Fprintln(os.Stderr, "perfbench: failed operations:", f)
	}
	return &window{runResult: rr, cpu: cpu, mallocs: m1.Mallocs - m0.Mallocs}
}

// checkLag marks the run invalid when the pacer ran too late for the
// schedule to be the one the system saw.
func (r *run) checkLag(w *window) {
	if lag := w.lagP99(); lag > maxLagP99 {
		r.invalid = fmt.Sprintf("generator lag p99 %v exceeds %v", lag, maxLagP99)
		fmt.Fprintln(os.Stderr, "perfbench: run invalid:", r.invalid)
	}
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxQPS runs rampReps ramps and returns the median of their estimates.
func (r *run) maxQPS(tp *topology, clients []*ldap.Client) float64 {
	var qps []float64
	for i := 0; i < rampReps; i++ {
		r.warm(tp, clients, 100+i, r.warmup/4)
		qps = append(qps, r.ramp(tp, clients, i))
	}
	sort.Float64s(qps)
	return (qps[(len(qps)-1)/2] + qps[len(qps)/2]) / 2
}

// ramp runs one max_qps probe: the offered rate of the workload's mix
// rises linearly from rampBase to rampTop times the nominal rate over
// r.rampDur, and the estimate is the offered rate where the system stopped
// keeping up (see knee).
func (r *run) ramp(tp *topology, clients []*ldap.Client, i int) float64 {
	lo, hi := r.w.mix.total(rampBase), r.w.mix.total(rampTop)
	rate := func(t time.Duration) float64 { return lo + (hi-lo)*t.Seconds()/r.rampDur.Seconds() }
	runtime.GC()
	ops := rampSchedule(r.seedFor(streamRamp, i), r.w.mix, rampBase, rampTop, r.rampDur)
	rr := pace(ops, r.rampDur, clients, tp.exec, 0, rampStop)
	r.noteWrong(rr)
	k, why := rr.knee(r.w.limit, rate)
	fmt.Fprintf(os.Stderr, "perfbench: ramp %d: %.1f ops/s (%s)\n", i, rate(k), why)
	return rate(k)
}

// recoverAll crashes and restarts the front server n times,
// timing crash → restart (WAL Open/Recover/Attach where the workload has
// one, else re-registration of the front's children) → first correct
// lookup and search. On the WAL-backed workload every registration
// acknowledged before the Barrier must come back exactly.
func (r *run) recoverAll(tp *topology, n int) ([]time.Duration, []phases, error) {
	if tp.pm != nil {
		// Snapshot first, as the background snapshotter would have, so each
		// crash replays the same image however much traffic came before.
		if err := tp.pm.Snapshot(); err != nil {
			return nil, nil, err
		}
	}
	var durs []time.Duration
	var phs []phases
	for i := 0; i < n; i++ {
		var before map[string]time.Time
		if tp.pm != nil {
			before = liveRegistrations(tp)
			if err := tp.pm.Barrier(); err != nil {
				return nil, nil, err
			}
		}
		runtime.GC()
		tp.crashFront()
		t0 := time.Now()
		ph, err := tp.restart()
		if err != nil {
			return nil, nil, fmt.Errorf("restart: %w", err)
		}
		c, err := genDial(tp.front.addr)
		if err != nil {
			return nil, nil, err
		}
		if before == nil {
			err = register([]*ldap.Client{c}, tp.frontRegs)
		}
		if err == nil {
			err = tp.verifyOnce(c)
		}
		d := time.Since(t0)
		genClose(c)
		if err != nil {
			r.wrong = append(r.wrong, "after restart: "+err.Error())
			continue
		}
		if before != nil {
			after := liveRegistrations(tp)
			for key, at := range before {
				if got, ok := after[key]; !ok || !got.Equal(at) {
					r.wrong = append(r.wrong, fmt.Sprintf("registration %s acknowledged before the barrier lost or stale after recovery", key))
					break
				}
			}
		}
		durs, phs = append(durs, d), append(phs, ph)
	}
	return durs, phs, nil
}

// liveRegistrations maps each live registration of the front directory to
// the issue time of the message it holds.
func liveRegistrations(tp *topology) map[string]time.Time {
	out := map[string]time.Time{}
	for _, c := range tp.front.dir.Receiver().Registry.Live() {
		if m, ok := c.Payload.(*grrp.Message); ok {
			out[c.Key] = m.IssuedAt
		}
	}
	return out
}

// untraced is the end-to-end run. It sets the topology up and reads its
// live heap, warms it, and runs the timed window at the nominal rate. Then
// it times setupReps-1 more set-ups, each discarded. No wrapper or obs
// registry is installed.
func (r *run) untraced() (*result, error) {
	t0 := time.Now()
	tp, clients, err := r.setup(nil)
	if err != nil {
		return nil, err
	}
	setups := []time.Duration{time.Since(t0)}
	defer tp.close()
	m := map[string]metric{}
	put := func(name string, v float64) { m[name] = metric{v, unitOf(name)} }
	put("heap_mb", liveHeapMB())
	r.warm(tp, clients, 0, r.warmup)
	win := r.timed(tp, clients, r.window, 0)
	genCloseAll(clients)
	r.checkLag(win)
	c := win.counts()
	put("cpu_ms_per_op", ms(win.cpu)/float64(max(c.ok, 1)))
	put("allocs_per_op", float64(win.mallocs)/float64(max(c.ok, 1)))
	for len(setups) < setupReps {
		t0 := time.Now()
		extra, extraClients, err := r.setup(nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
		genCloseAll(extraClients)
		extra.close()
	}
	put("setup_s", median(setups).Seconds())
	return &result{Attempted: c.attempted, Failed: c.failed(), Metrics: m}, nil
}

// liveHeapMB is the live heap after two forced GCs: the second empties the
// sync.Pool victim caches, which hold reusable buffers, not state.
//
// It is read right after the first set-up, before any load. Read after
// the window, it also held the runtime's descriptors of every goroutine
// the window's peak concurrency created, which the runtime never frees,
// so it grew with how hard the host stalled the window.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// env is the stamp printed beside every result.
func (r *run) env(trace int) map[string]any {
	commit, tree := sourceIdentity()
	rates := map[string]float64{}
	for k := kind(0); k < numKinds; k++ {
		rates[kindNames[k]] = r.w.mix.rates[k]
	}
	return map[string]any{
		"commit":             commit,
		"source_sha256":      tree,
		"cpu":                cpuModel(),
		"nproc":              runtime.NumCPU(),
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"go":                 runtime.Version(),
		"workload":           r.w.name,
		"seed":               r.seed,
		"window_s":           r.window.Seconds(),
		"trace":              trace,
		"wal_sync":           r.w.wal,
		"offered_rate_ops_s": rates,
		"latency_limit_ms":   ms(r.w.limit),
		"overload":           r.w.overload,
		"gen_conns_peak":     genConnsPeak.Load(),
		"gen_lag_bound_ms":   ms(maxLagP99),
		"valid":              r.invalid == "",
		"invalid_reason":     r.invalid,
	}
}

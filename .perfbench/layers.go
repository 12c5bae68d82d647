package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"mds2/internal/qcache"
)

// metricSpec names one reported metric as BENCHMARK.json lists it.
type metricSpec struct{ name, unit, better string }

// endToEnd are the untraced run's metrics.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"heap_mb", "MiB", "lower"},
}

// perLayer are the traced run's metrics. The span.* triples follow from
// spanKinds and are appended by init. The latencies and recovery_ms come
// from the traced run's untraced baseline topology: on a shared 2-vCPU
// host they move by more than any usable bound from run to run (see
// README.md), so they are reported here, unbounded, rather than gated as
// end-to-end metrics.
var perLayer = []metricSpec{
	{"search.p50_ms", "ms", "lower"},
	{"lookup.p50_ms", "ms", "lower"},
	{"register.p50_ms", "ms", "lower"},
	{"recovery_ms", "ms", "lower"},
	{"search.p99_ms", "ms", "lower"},
	{"lookup.p99_ms", "ms", "lower"},
	{"register.p99_ms", "ms", "lower"},
	{"max_qps", "ops/s", "higher"},
	{"ldap.wire_us_per_op", "us", "lower"},
	{"ldap.sendentry_us_per_entry", "us", "lower"},
	{"ldap.write_calls_per_op", "count", "lower"},
	{"ldap.read_calls_per_op", "count", "lower"},
	{"ldap.bytes_out_per_op", "bytes", "lower"},
	{"ldap.allocs_per_entry", "count", "lower"},
	{"ldap.admission.queue_wait_us", "us", "lower"},
	{"ldap.admission.shed_ratio", "ratio", "lower"},
	{"gris.search_us_per_op", "us", "lower"},
	{"gris.self_us_per_op", "us", "lower"},
	{"gris.backend_calls_per_search", "count", "lower"},
	{"gris.backend_us_per_call", "us", "lower"},
	{"giis.search_us_per_op", "us", "lower"},
	{"giis.hops_per_search", "count", "lower"},
	{"giis.hop_us_per_op", "us", "lower"},
	{"giis.hop_bytes_per_op", "bytes", "lower"},
	{"giis.dials_per_op", "count", "lower"},
	{"giis.add_us_per_op", "us", "lower"},
	{"giis.lookup_us_per_op", "us", "lower"},
	{"qcache.hit_ratio", "ratio", "higher"},
	{"qcache.coalesced_ratio", "ratio", "higher"},
	{"qcache.invalidated_per_write", "count", "lower"},
	{"qcache.keys", "count", "lower"},
	{"softstate.version_bumps_per_write", "count", "lower"},
	{"softstate.live", "count", "lower"},
	{"grrp.rejected_ratio", "ratio", "lower"},
	{"persist.journal_us_per_write", "us", "lower"},
	{"persist.wal.records_per_write", "count", "lower"},
	{"persist.wal.bytes_per_write", "bytes", "lower"},
	{"persist.wal.fsyncs_per_write", "count", "lower"},
	{"persist.wal.fsync_us", "us", "lower"},
	{"persist.open_ms", "ms", "lower"},
	{"persist.recover_ms", "ms", "lower"},
	{"persist.attach_ms", "ms", "lower"},
	{"fail_ratio", "ratio", "lower"},
	{"gen.lag_p99_ms", "ms", "lower"},
	{"gen.dropped", "count", "lower"},
	{"residual_us_per_op", "us", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

func init() {
	for _, k := range spanKinds {
		perLayer = append(perLayer,
			metricSpec{"span." + k + ".calls_per_op", "count", "lower"},
			metricSpec{"span." + k + ".busy_us_per_op", "us", "lower"},
			metricSpec{"span." + k + ".self_us_per_op", "us", "lower"})
	}
}

func unitOf(name string) string {
	for _, l := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range l {
			if s.name == name {
				return s.unit
			}
		}
	}
	panic("unknown metric " + name)
}

// layerSnap is every counter the traced run reads, at one instant.
type layerSnap struct {
	aggs                                             aggSnap
	connWrites, connReads, bytesOut, hopBytes, dials int64
	frontNs, frontWriteNs                            int64
	chained, hopNs                                   int64
	qc                                               qcache.Stats
	version                                          uint64
	live, rejected                                   int
	walRecords, walBytes, fsyncs, fsyncNs            int64
	queueWaits, queueWaitNs, shed                    int64
}

func (tp *topology) snapLayers() layerSnap {
	t := tp.t
	s := layerSnap{aggs: t.snapshot(),
		connWrites: t.connWrites.Load(), connReads: t.connReads.Load(), bytesOut: t.bytesOut.Load(),
		hopBytes: t.hopBytes.Load(), dials: t.dials.Load(),
		frontNs: t.frontNs.Load(), frontWriteNs: t.frontWriteNs.Load()}
	for _, n := range tp.nodes {
		if n.dir == nil {
			continue
		}
		s.chained += n.dir.ChainedOps.Value()
		s.hopNs += n.obs.Histogram("giis_chain_child_ns").Sum()
	}
	d := tp.front.dir
	if qc := d.QueryCache(); qc != nil {
		s.qc = qc.Stats()
	}
	reg := d.Receiver().Registry
	s.version, s.live, s.rejected = reg.Version(), reg.Len(), d.Receiver().Rejected()
	if o := tp.pmObs; o != nil {
		s.walRecords = o.Counter("persist_wal_records_total").Value()
		s.walBytes = o.Counter("persist_wal_bytes_total").Value()
		h := o.Histogram("persist_fsync_ns")
		s.fsyncs, s.fsyncNs = h.Count(), h.Sum()
	}
	fo := tp.front.obs
	qw := fo.Histogram("ldap_admission_queue_wait_ns")
	s.queueWaits, s.queueWaitNs = qw.Count(), qw.Sum()
	s.shed = fo.Counter("ldap_shed_busy_total").Value() + fo.Counter("ldap_shed_unavailable_total").Value() +
		fo.Counter("ldap_throttled_total").Value()
	return s
}

// traced is the per-layer run. An untraced topology first runs a full
// window for the latencies and the baseline CPU and allocation cost per
// op, then the max_qps ramps and the crash / recovery cycles for
// recovery_ms; then a traced topology (wrappers plus every public obs
// registry) runs half a window, and its crash / recovery cycles time the
// persist phases.
func (r *run) traced() (*result, error) {
	half := r.window / 2
	tp, clients, err := r.setup(nil)
	if err != nil {
		return nil, err
	}
	r.warm(tp, clients, 0, r.warmup)
	base := r.timed(tp, clients, r.window, 0)
	r.checkLag(base)
	maxQPS := r.maxQPS(tp, clients)
	genCloseAll(clients)
	recov, _, err := r.recoverAll(tp, recoverReps)
	tp.close()
	if err != nil {
		return nil, err
	}

	t := newTracer()
	tp, clients, err = r.setup(t)
	if err != nil {
		return nil, err
	}
	defer func() { tp.close() }()
	r.warm(tp, clients, 200, r.warmup)
	s0 := tp.snapLayers()
	win := r.timed(tp, clients, half, 200)
	s1 := tp.snapLayers()
	genCloseAll(clients)
	_, phs, err := r.recoverAll(tp, recoverReps)
	if err != nil {
		return nil, err
	}
	if err := t.writeSpans(filepath.Join(workDir, "spans-"+r.w.name+".tsv")); err != nil {
		return nil, err
	}

	bc, c := base.counts(), win.counts()
	n := float64(max(c.ok, 1))
	var byKind [numKinds]float64
	var rtt, lat, lag time.Duration
	for i, smp := range win.samples {
		if smp.out != outOK {
			continue
		}
		byKind[smp.kind]++
		rtt += smp.rtt
		lat += smp.lat
		lag += win.lags[i]
	}
	perKind := func(x float64, k kind) float64 {
		if byKind[k] == 0 {
			return 0
		}
		return x / byKind[k]
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	us := func(ns float64) float64 { return ns / 1e3 }
	d := func(k string, i int) float64 { return float64(s1.aggs[k][i] - s0.aggs[k][i]) }
	writes := float64(byKind[kRegister])

	m := map[string]metric{}
	put := func(name string, v float64) { m[name] = metric{v, unitOf(name)} }
	for k := kind(0); k < numKinds; k++ {
		put(kindNames[k]+".p50_ms", ms(quantile(base.latencies(k), 0.50)))
		put(kindNames[k]+".p99_ms", ms(quantile(base.latencies(k), 0.99)))
	}
	put("recovery_ms", ms(median(recov)))
	put("max_qps", maxQPS)
	frontNs := float64(s1.frontNs - s0.frontNs)
	queueNs := float64(s1.queueWaitNs - s0.queueWaitNs)
	put("ldap.wire_us_per_op", us((float64(rtt)-frontNs)/n))
	put("ldap.sendentry_us_per_entry", us(ratio(d(spanSendEntry, 1), d(spanSendEntry, 0))))
	put("ldap.write_calls_per_op", float64(s1.connWrites-s0.connWrites)/n)
	put("ldap.read_calls_per_op", float64(s1.connReads-s0.connReads)/n)
	put("ldap.bytes_out_per_op", float64(s1.bytesOut-s0.bytesOut)/n)
	put("ldap.allocs_per_entry", ratio(float64(base.mallocs), float64(bc.entries)))
	put("ldap.admission.queue_wait_us", us(ratio(queueNs, float64(s1.queueWaits-s0.queueWaits))))
	put("ldap.admission.shed_ratio", ratio(float64(s1.shed-s0.shed), float64(c.attempted)))
	put("gris.search_us_per_op", us(d(spanGRISSearch, 1)/n))
	put("gris.self_us_per_op", us((d(spanGRISSearch, 2)-d(spanBackend, 1))/n))
	put("gris.backend_calls_per_search", ratio(d(spanBackend, 0), d(spanGRISSearch, 0)))
	put("gris.backend_us_per_call", us(ratio(d(spanBackend, 1), d(spanBackend, 0))))
	put("giis.search_us_per_op", us(d(spanGIISSearch, 1)/n))
	put("giis.hops_per_search", ratio(float64(s1.chained-s0.chained), byKind[kSearch]+byKind[kLookup]))
	put("giis.hop_us_per_op", us(float64(s1.hopNs-s0.hopNs)/n))
	put("giis.hop_bytes_per_op", float64(s1.hopBytes-s0.hopBytes)/n)
	put("giis.dials_per_op", float64(s1.dials-s0.dials)/n)
	put("giis.add_us_per_op", us(perKind(d(spanGIISAdd, 1), kRegister)))
	put("giis.lookup_us_per_op", us(perKind(d(spanGIISLookup, 1), kLookup)))
	reads := float64(s1.qc.Hits - s0.qc.Hits + s1.qc.Misses - s0.qc.Misses)
	put("qcache.hit_ratio", ratio(float64(s1.qc.Hits-s0.qc.Hits), reads))
	put("qcache.coalesced_ratio", ratio(float64(s1.qc.Coalesced-s0.qc.Coalesced), reads))
	put("qcache.invalidated_per_write", ratio(float64(s1.qc.Invalidated-s0.qc.Invalidated), writes))
	put("qcache.keys", float64(s1.qc.Keys))
	put("softstate.version_bumps_per_write", ratio(float64(s1.version-s0.version), writes))
	put("softstate.live", float64(s1.live))
	put("grrp.rejected_ratio", ratio(float64(s1.rejected-s0.rejected), writes))
	put("persist.journal_us_per_write", us(ratio(d(spanJournal, 1), writes)))
	put("persist.wal.records_per_write", ratio(float64(s1.walRecords-s0.walRecords), writes))
	put("persist.wal.bytes_per_write", ratio(float64(s1.walBytes-s0.walBytes), writes))
	put("persist.wal.fsyncs_per_write", ratio(float64(s1.fsyncs-s0.fsyncs), writes))
	put("persist.wal.fsync_us", us(ratio(float64(s1.fsyncNs-s0.fsyncNs), float64(s1.fsyncs-s0.fsyncs))))
	var open, rec, att []time.Duration
	if r.w.wal != "none" {
		for _, p := range phs {
			open, rec, att = append(open, p.open), append(rec, p.recover), append(att, p.attach)
		}
	}
	put("persist.open_ms", ms(median(open)))
	put("persist.recover_ms", ms(median(rec)))
	put("persist.attach_ms", ms(median(att)))
	put("fail_ratio", ratio(float64(bc.failed()), float64(bc.attempted)))
	put("gen.lag_p99_ms", ms(win.lagP99()))
	put("gen.dropped", float64(c.dropped))
	put("residual_us_per_op", us((float64(lat)-float64(lag)-frontNs-queueNs-float64(s1.frontWriteNs-s0.frontWriteNs))/n))
	put("trace.overhead_ratio", ratio(float64(win.cpu)/n, float64(base.cpu)/float64(max(bc.ok, 1))))
	for _, k := range spanKinds {
		put("span."+k+".calls_per_op", d(k, 0)/n)
		put("span."+k+".busy_us_per_op", us(d(k, 1)/n))
		put("span."+k+".self_us_per_op", us(d(k, 2)/n))
	}
	return &result{Attempted: bc.attempted + c.attempted, Failed: bc.failed() + c.failed(), Metrics: m}, nil
}

// printTable writes the metrics for humans, in BENCHMARK.json order.
func printTable(w io.Writer, res *result) {
	for _, l := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range l {
			if v, ok := res.Metrics[s.name]; ok {
				fmt.Fprintf(w, "%-40s %14.4f %s\n", s.name, v.Value, v.Unit)
			}
		}
	}
	fmt.Fprintf(w, "attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
}

// sourceIdentity returns the commit the Go toolchain stamped into the
// binary (suffixed "+dirty" for a modified work tree, "unknown" outside
// git), and always a SHA-256 over the module's Go sources and go.mod, so a
// result names the code it measured even outside git.
func sourceIdentity() (commit, tree string) {
	commit = "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var dirty bool
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty && commit != "unknown" {
			commit += "+dirty"
		}
	}
	var files []string
	for _, root := range []string{"cmd", "internal"} {
		filepath.WalkDir(root, func(p string, de os.DirEntry, err error) error {
			if err == nil && !de.IsDir() && strings.HasSuffix(p, ".go") {
				files = append(files, p)
			}
			return nil
		})
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range append([]string{"go.mod"}, files...) {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return commit, hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"mds2/internal/ldap"
)

func TestScheduleDeterministic(t *testing.T) {
	for _, w := range workloads {
		a := schedule(42, w.mix, 1, 3*time.Second)
		b := schedule(42, w.mix, 1, 3*time.Second)
		if len(a) == 0 || !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed gave different schedules (%d vs %d ops)", w.name, len(a), len(b))
		}
		if c := schedule(43, w.mix, 1, 3*time.Second); reflect.DeepEqual(a, c) {
			t.Fatalf("%s: different seeds gave the same schedule", w.name)
		}
		var n [numKinds]int
		for _, o := range a {
			n[o.kind]++
			if o.arg < 0 || (w.mix.args[o.kind] > 0 && o.arg >= w.mix.args[o.kind]) {
				t.Fatalf("%s: selector %d out of range for %s", w.name, o.arg, kindNames[o.kind])
			}
		}
		total := w.mix.total(1)
		for k := kind(0); k < numKinds; k++ {
			want := w.mix.rates[k] / total * float64(len(a))
			if d := float64(n[k]) - want; d > deckSize || d < -deckSize {
				t.Errorf("%s: %d %s ops, want about %.0f", w.name, n[k], kindNames[k], want)
			}
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestMetricNamesMatchBenchmarkJSON pins the metric lists the program
// prints to the ones BENCHMARK.json declares.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	check := func(list string, got []struct{ Name, Unit, Better string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, program reports %d", list, len(got), len(want))
		}
		for i, g := range got {
			if w := want[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", list, i, g, w)
			}
			if !metricName.MatchString(g.Name) {
				t.Errorf("%s: bad metric name %q", list, g.Name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestTracedEntriesIdentical checks that the wrappers change nothing a
// client sees: every query returns byte-identical entries traced and
// untraced.
func TestTracedEntriesIdentical(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain := answers(t, w, nil)
			traced := answers(t, w, newTracer())
			if len(plain) == 0 || !reflect.DeepEqual(plain, traced) {
				t.Fatalf("traced answers differ from untraced (%d vs %d queries)", len(plain), len(traced))
			}
		})
	}
}

// answers runs every search and the first lookups of w's topology and
// returns each answer's entries as encoded LDAP messages, sorted. Server
// addresses differ between topologies, so each is replaced by its node's
// position before encoding.
func answers(t *testing.T, w *workload, tr *tracer) [][]string {
	t.Helper()
	r := newRun(w, 1, time.Second)
	tp, clients, err := r.setup(tr)
	if err != nil {
		t.Fatal(err)
	}
	defer tp.close()
	defer genCloseAll(clients)
	var pairs []string
	for i, n := range tp.nodes {
		pairs = append(pairs, n.addr, fmt.Sprintf("node%d", i))
	}
	norm := strings.NewReplacer(pairs...)
	qs := append(append([]*query(nil), tp.searches...), tp.lookups[:min(len(tp.lookups), 4)]...)
	var out [][]string
	for _, q := range qs {
		res, err := clients[0].Search(q.req)
		if err != nil {
			t.Fatal(err)
		}
		var enc []string
		for _, e := range res.Entries {
			n := ldap.NewEntry(ldap.MustParseDN(norm.Replace(e.DN.String())))
			for _, a := range e.Attrs {
				for _, v := range a.Values {
					n.Add(a.Name, norm.Replace(v))
				}
			}
			m := &ldap.Message{ID: 1, Op: &ldap.SearchResultEntry{Entry: n}}
			enc = append(enc, string(m.Encode()))
		}
		sort.Strings(enc)
		if len(enc) != len(q.want) {
			t.Fatalf("%s: %d entries, want %d", q.req.BaseDN, len(enc), len(q.want))
		}
		out = append(out, enc)
	}
	return out
}

// TestSmoke runs every workload end to end, untraced and traced, with
// short windows, and checks the result shape.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r := newRun(w, 7, time.Second)
			r.warmup, r.rampDur = 200*time.Millisecond, 300*time.Millisecond
			var res *result
			var err error
			want := endToEnd
			if traced {
				res, err = r.traced()
				want = perLayer
			} else {
				res, err = r.untraced()
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if len(r.wrong) > 0 {
				t.Fatalf("%s traced=%v: wrong answers: %v", w.name, traced, r.wrong)
			}
			if res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d", w.name, traced, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, s := range want {
				m, ok := res.Metrics[s.name]
				if !ok || m.Unit != s.unit {
					t.Errorf("%s traced=%v: metric %s missing or wrong unit", w.name, traced, s.name)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, s.name, m.Value)
				}
			}
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(res); err != nil {
				t.Fatal(err)
			}
		}
	}
	if p := genConnsPeak.Load(); p > int64(nprocs()) {
		t.Fatalf("generator peaked at %d connections, nproc is %d", p, nprocs())
	}
}

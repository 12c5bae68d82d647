package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mds2/internal/gris"
	"mds2/internal/ldap"
	"mds2/internal/softstate"
)

// reqIDOID tags each benchmark request with its operation number in traced
// runs, so the front server's handler span and the generator's record of
// the same request share an identifier. Servers ignore the non-critical
// control; chained hops do not forward it, so inner spans carry ID 0.
const reqIDOID = "2.25.160315713416305512271237094151418463071"

// Span kinds recorded at the layer boundaries the benchmark wraps.
const (
	spanGRISSearch = "gris.search"     // GRIS handler Search
	spanGIISSearch = "giis.search"     // GIIS handler Search (data or chained hop)
	spanGIISLookup = "giis.lookup"     // GIIS handler one-level child-index Search
	spanGIISAdd    = "giis.add"        // GIIS handler Add (GRRP registration)
	spanSendEntry  = "ldap.sendentry"  // SearchWriter.SendEntry, child of a handler span
	spanBackend    = "gris.backend"    // gris.Backend.Entries
	spanDial       = "giis.dial"       // giis.Dialer
	spanJournal    = "persist.journal" // softstate.Journal.JournalRegistry
	spanConnWrite  = "ldap.conn.write" // Write on an accepted server connection
)

// spanKinds fixes the reporting order of the per-kind triples.
var spanKinds = []string{spanGRISSearch, spanGIISSearch, spanGIISLookup, spanGIISAdd,
	spanSendEntry, spanBackend, spanDial, spanJournal, spanConnWrite}

// span is one recorded interval. Parent is the enclosing span's ID where
// the wrapper sees the nesting (handler ⊃ SendEntry), else 0.
type span struct {
	id, parent, req uint64
	name            string
	start, end      int64 // ns since the tracer's epoch
}

// agg accumulates one span kind: calls, busy time, and self time (busy
// minus the time of child spans it encloses).
type agg struct {
	calls, busyNs, selfNs atomic.Int64
}

// maxSpans bounds the spans kept for the trace file; aggregates keep
// counting past it.
const maxSpans = 200000

// tracer keeps spans in memory and aggregates them per kind. A nil
// *tracer records nothing; the untraced topologies never construct one.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64
	aggs   map[string]*agg

	mu    sync.Mutex
	spans []span

	// Accepted-connection and dialed-connection traffic.
	connWrites, connReads, bytesOut atomic.Int64
	hopBytes, dials                 atomic.Int64
	frontNs, frontWriteNs           atomic.Int64 // front-server handler and conn-write busy time
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), aggs: map[string]*agg{}}
	for _, k := range spanKinds {
		t.aggs[k] = &agg{}
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// record stores a finished span and folds it into its kind's aggregate.
func (t *tracer) record(s span, childNs int64) {
	d := s.end - s.start
	a := t.aggs[s.name]
	a.calls.Add(1)
	a.busyNs.Add(d)
	a.selfNs.Add(d - childNs)
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// aggSnap is a point-in-time copy of every aggregate, for window deltas.
type aggSnap map[string][3]int64

func (t *tracer) snapshot() aggSnap {
	out := aggSnap{}
	for k, a := range t.aggs {
		out[k] = [3]int64{a.calls.Load(), a.busyNs.Load(), a.selfNs.Load()}
	}
	return out
}

// writeSpans writes the kept spans as tab-separated lines:
// id, parent, request, name, start ns, end ns.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\treq\tname\tstart_ns\tend_ns")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.req, s.name, s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// requestID extracts the benchmark's request tag, or 0.
func requestID(controls []ldap.Control) uint64 {
	if c, ok := ldap.FindControl(controls, reqIDOID); ok && len(c.Value) == 8 {
		return binary.BigEndian.Uint64(c.Value)
	}
	return 0
}

func requestControl(id uint64) ldap.Control {
	v := make([]byte, 8)
	binary.BigEndian.PutUint64(v, id)
	return ldap.Control{OID: reqIDOID, Value: v}
}

// tracedHandler wraps an ldap.Handler: Search and Add become spans, and the
// SearchWriter handed to Search is wrapped so SendEntry spans nest under
// the handler span.
type tracedHandler struct {
	ldap.Handler
	t      *tracer
	isGRIS bool
	suffix ldap.DN
	front  bool // the server the generator talks to
}

func (h *tracedHandler) Search(req *ldap.Request, op *ldap.SearchRequest, w ldap.SearchWriter) ldap.Result {
	name := spanGIISSearch
	switch {
	case h.isGRIS:
		name = spanGRISSearch
	case op.Scope == ldap.ScopeSingleLevel && isBase(op.BaseDN, h.suffix):
		name = spanGIISLookup
	}
	s := span{id: h.t.nextID.Add(1), req: requestID(req.Controls), name: name, start: h.t.now()}
	tw := &tracedWriter{inner: w, t: h.t, parent: s.id, req: s.req}
	res := h.Handler.Search(req, op, tw)
	s.end = h.t.now()
	h.t.record(s, tw.childNs.Load())
	h.noteFront(s)
	return res
}

func (h *tracedHandler) Add(req *ldap.Request, op *ldap.AddRequest) ldap.Result {
	s := span{id: h.t.nextID.Add(1), req: requestID(req.Controls), name: spanGIISAdd, start: h.t.now()}
	res := h.Handler.Add(req, op)
	s.end = h.t.now()
	h.t.record(s, 0)
	h.noteFront(s)
	return res
}

// noteFront adds a front-server handler span to the root handler total
// that wire time and the residual are measured against.
func (h *tracedHandler) noteFront(s span) {
	if h.front {
		h.t.frontNs.Add(s.end - s.start)
	}
}

func isBase(base string, suffix ldap.DN) bool {
	dn, err := ldap.ParseDN(base)
	return err == nil && dn.Equal(suffix)
}

// tracedWriter wraps the SearchWriter of one handler call. SendEntry may
// be called from several goroutines (GIIS fan-out), so the child total is
// atomic.
type tracedWriter struct {
	inner   ldap.SearchWriter
	t       *tracer
	parent  uint64
	req     uint64
	childNs atomic.Int64
}

func (w *tracedWriter) SendEntry(e *ldap.Entry, controls ...ldap.Control) error {
	s := span{id: w.t.nextID.Add(1), parent: w.parent, req: w.req, name: spanSendEntry, start: w.t.now()}
	err := w.inner.SendEntry(e, controls...)
	s.end = w.t.now()
	w.childNs.Add(s.end - s.start)
	w.t.record(s, 0)
	return err
}

func (w *tracedWriter) SendReferral(urls ...string) error { return w.inner.SendReferral(urls...) }

// tracedBackend wraps a gris.Backend. gris.Query carries no request
// identity, so backend spans have no parent; their time is subtracted from
// GRIS self time in aggregate.
type tracedBackend struct {
	gris.Backend
	t *tracer
}

func (b *tracedBackend) Entries(q *gris.Query) ([]*ldap.Entry, error) {
	s := span{id: b.t.nextID.Add(1), name: spanBackend, start: b.t.now()}
	out, err := b.Backend.Entries(q)
	s.end = b.t.now()
	b.t.record(s, 0)
	return out, err
}

// tracedJournal wraps the registry's journal (the persist Manager),
// installed with SetJournal after Attach.
type tracedJournal struct {
	inner softstate.Journal
	t     *tracer
}

func (j *tracedJournal) JournalRegistry(recs []softstate.JournalRecord) {
	s := span{id: j.t.nextID.Add(1), name: spanJournal, start: j.t.now()}
	j.inner.JournalRegistry(recs)
	s.end = j.t.now()
	j.t.record(s, 0)
}

// tracedDialer dials child services for a GIIS, counting dials and the
// bytes each chained hop reads back.
func (t *tracer) dialer(url ldap.URL) (*ldap.Client, error) {
	s := span{id: t.nextID.Add(1), name: spanDial, start: t.now()}
	conn, err := net.Dial("tcp", url.Address())
	s.end = t.now()
	t.record(s, 0)
	t.dials.Add(1)
	if err != nil {
		return nil, err
	}
	return ldap.NewClient(&hopConn{Conn: conn, t: t}), nil
}

type hopConn struct {
	net.Conn
	t *tracer
}

func (c *hopConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.t.hopBytes.Add(int64(n))
	return n, err
}

// tracedListener wraps a server's listener so every accepted connection
// counts its reads, writes, and bytes written, and times its writes.
type tracedListener struct {
	net.Listener
	t     *tracer
	front bool
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &serverConn{Conn: c, t: l.t, front: l.front}, nil
}

type serverConn struct {
	net.Conn
	t     *tracer
	front bool
}

func (c *serverConn) Read(p []byte) (int, error) {
	c.t.connReads.Add(1)
	return c.Conn.Read(p)
}

func (c *serverConn) Write(p []byte) (int, error) {
	s := span{id: c.t.nextID.Add(1), name: spanConnWrite, start: c.t.now()}
	n, err := c.Conn.Write(p)
	s.end = c.t.now()
	c.t.record(s, 0)
	if c.front {
		c.t.frontWriteNs.Add(s.end - s.start)
	}
	c.t.connWrites.Add(1)
	c.t.bytesOut.Add(int64(n))
	return n, err
}

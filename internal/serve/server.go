// Package serve implements the nontree-serve daemon: a small HTTP server
// exposing the routing algorithms (POST /route), live Prometheus metrics
// (GET /metrics), health (GET /healthz), retained execution traces
// (GET /traces/<id>), per-request wide events (GET /logs), and the
// standard pprof profiling endpoints.
//
// The daemon is an introspection surface over the deterministic library:
// every /route reply carries a trace id whose JSONL export replays to the
// exact decision sequence of the run (DESIGN.md §11), and a request id
// resolving via /logs?request=<id> to one wide event attributing the
// request's latency to queue wait, body decode, sweep bookkeeping, oracle
// evaluations and trace storage (DESIGN.md §16). A production routing can
// be re-derived and diffed offline with cmd/tracereplay.
package serve

import (
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nontree/internal/netlist"
	"nontree/internal/obs"
	"nontree/internal/olog"
	"nontree/internal/trace"
)

// Server-side observability names, exposed through /metrics alongside the
// algorithm catalog. The values live in the internal/obs names catalog
// (ServeCounterNames / TimingNames); these aliases keep call sites short
// and are interchangeable with the obs spellings under the obsnames lint.
const (
	// CtrRouteRequests counts /route requests accepted for routing.
	CtrRouteRequests = obs.CtrRouteRequests
	// CtrRouteErrors counts /route requests that failed (bad input or
	// routing error).
	CtrRouteErrors = obs.CtrRouteErrors
	// CtrRouteRejected counts /route requests shed by the concurrency
	// limiter or refused while draining.
	CtrRouteRejected = obs.CtrRouteRejected
	// CtrTraceEvictions counts traces evicted from the retention window.
	CtrTraceEvictions = obs.CtrTraceEvictions
	// CtrLogEvents counts wide events appended to the request log.
	CtrLogEvents = obs.CtrLogEvents
	// CtrLogDropped counts wide events discarded because logging is
	// disabled.
	CtrLogDropped = obs.CtrLogDropped
	// CtrLogEvictions counts wide events evicted from the log ring.
	CtrLogEvictions = obs.CtrLogEvictions
	// TimeRouteSeconds is the wall-clock /route handling distribution.
	TimeRouteSeconds = obs.TimeRouteSeconds
)

// DefaultTraceCapacity is the per-request trace ring bound Options and the
// -trace-capacity flag default to. A ring grows in chunks of 128 events
// (a first, smaller chunk doubles up to that) as a request emits them, so
// the bound costs memory only for a run that long.
const DefaultTraceCapacity = 1 << 16

// Options tunes a Server. The zero value is fully usable.
type Options struct {
	// MaxConcurrent bounds simultaneously executing /route requests;
	// excess requests are shed with 429 (0 = 2×GOMAXPROCS).
	MaxConcurrent int
	// TraceCapacity bounds each request's trace ring, in events (0 =
	// DefaultTraceCapacity). Memory grows in 128-event chunks with the
	// events a request emits, up to this cap; older events are dropped
	// beyond it.
	TraceCapacity int
	// MaxTraces bounds retained traces; the oldest is evicted first
	// (0 = 64).
	MaxTraces int
	// MaxLogEvents bounds the retained wide events at /logs — one per
	// /route request, oldest evicted first (0 = olog.DefaultRingCapacity;
	// negative disables request logging entirely, counting each skipped
	// event under serve.log.dropped).
	MaxLogEvents int
	// MaxBodyBytes bounds the /route request body (0 = 1 MiB).
	MaxBodyBytes int64
	// RequestTimeout bounds /route handling wall-clock time (0 = 60s).
	RequestTimeout time.Duration
	// Metrics receives server and algorithm metrics (nil = a fresh
	// preregistered registry).
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if o.TraceCapacity <= 0 {
		o.TraceCapacity = DefaultTraceCapacity
	}
	if o.MaxTraces <= 0 {
		o.MaxTraces = 64
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 60 * time.Second
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewRegistry()
		obs.Preregister(o.Metrics)
	}
	return o
}

// Server is the nontree-serve HTTP application state. Create with New,
// mount Handler on an http.Server, and call BeginDrain before shutdown so
// load balancers see /healthz flip unhealthy while in-flight requests
// finish.
type Server struct {
	opts     Options
	metrics  *obs.Registry
	slots    chan struct{} // concurrency limiter for /route
	draining atomic.Bool
	inflight atomic.Int64
	traceSeq atomic.Uint64
	reqSeq   atomic.Uint64
	// logs retains one wide event per /route request (nil = disabled).
	// olog.Ring, like trace.Ring, locks only its internal/ring leaf lock,
	// so it may be touched from anywhere in the handler without ordering
	// concerns.
	logs *olog.Ring

	// mu is the outermost lock of the daemon: it may be held while calling
	// into trace.Ring, olog.Ring (both on the ring.Ring leaf lock) and
	// obs.Registry (a leaf lock), never the reverse. The lockorder analyzer
	// verifies the Server → Ring/Registry nesting stays acyclic
	// (DESIGN.md §14).
	mu sync.Mutex
	// traces maps trace id → element in order.
	//nontree:guardedby mu
	traces map[string]*list.Element
	// order keeps retention order: front = oldest, back = newest.
	//nontree:guardedby mu
	order *list.List

	// routeStall, when non-nil, is called inside handleRoute right after
	// the concurrency slot is acquired and the request is counted in
	// flight — a test hook that lets the shed/timeout/drain tests hold a
	// request in flight deterministically. Never set outside tests.
	routeStall func()
}

// storedTrace is one retained trace with its provenance: the exact request
// that produced it, so tracereplay can re-run the identical workload.
type storedTrace struct {
	id   string
	ring *trace.Ring // finished: the run that emitted into it has returned
	req  RouteRequest
}

// New returns a Server ready to mount. Whatever registry the options
// carry (supplied or defaulted) gets the serve catalog preregistered, so
// /metrics exposes the daemon surface from the first scrape.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	obs.PreregisterServe(opts.Metrics)
	s := &Server{
		opts:    opts,
		metrics: opts.Metrics,
		slots:   make(chan struct{}, opts.MaxConcurrent),
		traces:  make(map[string]*list.Element),
		order:   list.New(),
	}
	if opts.MaxLogEvents >= 0 {
		s.logs = olog.NewRing(opts.MaxLogEvents)
	}
	return s
}

// Metrics exposes the server's registry (for embedding tests and the CLI).
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// Logs exposes the wide-event ring (nil when request logging is disabled)
// for embedding tests and in-process drivers.
func (s *Server) Logs() *olog.Ring { return s.logs }

// BeginDrain flips the server unhealthy: /healthz answers 503 and new
// /route requests are refused, while already-running requests and trace or
// metrics reads keep working. Idempotent.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Inflight reports currently executing /route requests.
func (s *Server) Inflight() int64 { return s.inflight.Load() }

// Handler returns the full route table. The /route endpoint is wrapped in
// http.TimeoutHandler inside the request-identity middleware — the
// X-Request-ID header is set on the outer ResponseWriter, so even the
// timeout 503 names the wide event it produced. Reads (/metrics,
// /healthz, /traces, /logs) stay un-timed so they remain responsive under
// load.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/route", s.withRequestID(http.TimeoutHandler(
		http.HandlerFunc(s.handleRoute), s.opts.RequestTimeout,
		`{"error":"request timed out"}`)))
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/traces/", s.handleTrace)
	mux.HandleFunc("/logs", s.handleLogs)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// reqMetaKey keys the request metadata in the request context.
type reqMetaKey struct{}

// reqMeta is one request's identity and clock, created by withRequestID
// before the timeout handler so both survive a timeout.
type reqMeta struct {
	id string
	// elapsed reports seconds since the request entered the middleware —
	// the single stopwatch every phase mark is cut from, so phase
	// durations sum to the total by construction.
	elapsed func() float64
}

// withRequestID assigns the stable request identity ("r%08d", in arrival
// order) and starts the request stopwatch. It runs OUTSIDE
// http.TimeoutHandler: the X-Request-ID header lands on the outer
// ResponseWriter, which the timeout 503 inherits, so a timed-out client
// can still resolve its wide event.
func (s *Server) withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		meta := &reqMeta{
			id:      fmt.Sprintf("r%08d", s.reqSeq.Add(1)),
			elapsed: obs.Stopwatch(),
		}
		w.Header().Set("X-Request-ID", meta.id)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), reqMetaKey{}, meta)))
	})
}

// PhaseBreakdown is the per-phase wall-clock attribution of one /route
// request, echoed in the reply and recorded in the request's wide event.
// The five phases sum to TotalSeconds exactly: every mark is cut from one
// stopwatch, and sweep vs. oracle time split the routing interval
// (oracle = the request's core.oracle.seconds span sum, clamped to the
// interval since concurrent workers can over-count wall time).
type PhaseBreakdown struct {
	QueueSeconds  float64 `json:"queue_seconds"`
	DecodeSeconds float64 `json:"decode_seconds"`
	SweepSeconds  float64 `json:"sweep_seconds"`
	OracleSeconds float64 `json:"oracle_seconds"`
	StoreSeconds  float64 `json:"store_seconds"`
	TotalSeconds  float64 `json:"total_seconds"`
}

// RouteRequest is the /route request body: a net plus routing options.
type RouteRequest struct {
	// Net is the signal net to route (pins[0] is the source).
	Net *netlist.Net `json:"net"`
	RouteOptions
}

// RouteResponse is the /route reply.
type RouteResponse struct {
	*RouteResult
	// RequestID resolves the request's wide event at /logs?request=<id>
	// while it stays within the log retention window; also echoed in the
	// X-Request-ID response header.
	RequestID string `json:"request_id"`
	// TraceID retrieves the run's execution trace from /traces/<id> while
	// it stays within the server's retention window.
	TraceID string `json:"trace_id"`
	// TraceEvents and TraceDropped report the ring occupancy: Dropped > 0
	// means the ring overflowed and the retained trace is a suffix.
	TraceEvents  int   `json:"trace_events"`
	TraceDropped int64 `json:"trace_dropped,omitempty"`
	// Phases attributes the request's server-side latency per phase.
	Phases *PhaseBreakdown `json:"phases,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
	// RequestID names the request's wide event; empty on endpoints that
	// run outside the request-identity middleware (/traces, /metrics).
	RequestID string `json:"request_id,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// emit finalizes and records the request's wide event: stamps the total
// and its exemplar latency bucket, then appends to the log ring. Exactly
// one emit happens per /route request, whatever its outcome.
func (s *Server) emit(meta *reqMeta, ev *olog.Event) {
	ev.TotalSeconds = meta.elapsed()
	ev.LatencyBucket = obs.BucketIndex(ev.TotalSeconds)
	if s.logs == nil {
		s.metrics.Add(CtrLogDropped, 1)
		return
	}
	if s.logs.Append(*ev) {
		s.metrics.Add(CtrLogEvictions, 1)
	}
	s.metrics.Add(CtrLogEvents, 1)
}

// failRoute answers a failed /route request and emits its wide event. If
// the request timed out meanwhile, the client already holds the timeout
// 503 from http.TimeoutHandler and any write here would be discarded — the
// event is recorded as a timeout instead, so the outcome in the log always
// matches what the client saw.
func (s *Server) failRoute(w http.ResponseWriter, r *http.Request, meta *reqMeta,
	ev *olog.Event, status int, outcome, format string, args ...any) {

	if r.Context().Err() == context.DeadlineExceeded {
		ev.Status = http.StatusServiceUnavailable
		ev.Outcome = olog.OutcomeTimeout
		ev.Error = "request timed out"
		s.emit(meta, ev)
		return
	}
	msg := fmt.Sprintf(format, args...)
	ev.Status = status
	ev.Outcome = outcome
	ev.Error = msg
	writeJSON(w, status, errorResponse{Error: msg, RequestID: meta.id})
	s.emit(meta, ev)
}

func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	meta, _ := r.Context().Value(reqMetaKey{}).(*reqMeta)
	if meta == nil {
		// Defensive: handleRoute is only ever mounted behind withRequestID.
		meta = &reqMeta{id: fmt.Sprintf("r%08d", s.reqSeq.Add(1)), elapsed: obs.Stopwatch()}
		w.Header().Set("X-Request-ID", meta.id)
	}
	ev := olog.Event{RequestID: meta.id}

	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.failRoute(w, r, meta, &ev, http.StatusMethodNotAllowed, olog.OutcomeError, "POST only")
		return
	}
	if s.draining.Load() {
		s.metrics.Add(CtrRouteRejected, 1)
		// Drain is transient — the replacement process is seconds away, so
		// tell clients to retry like the limiter does.
		w.Header().Set("Retry-After", "1")
		s.failRoute(w, r, meta, &ev, http.StatusServiceUnavailable, olog.OutcomeDrained, "server is draining")
		return
	}
	select {
	case s.slots <- struct{}{}:
		defer func() { <-s.slots }()
	default:
		s.metrics.Add(CtrRouteRejected, 1)
		w.Header().Set("Retry-After", "1")
		s.failRoute(w, r, meta, &ev, http.StatusTooManyRequests, olog.OutcomeShed, "concurrency limit reached")
		return
	}
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if s.routeStall != nil {
		s.routeStall()
	}
	tQueue := meta.elapsed()
	ev.QueueSeconds = tQueue

	var req RouteRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.metrics.Add(CtrRouteErrors, 1)
		ev.DecodeSeconds = meta.elapsed() - tQueue
		s.failRoute(w, r, meta, &ev, http.StatusBadRequest, olog.OutcomeError, "decoding request: %v", err)
		return
	}
	tDecode := meta.elapsed()
	ev.DecodeSeconds = tDecode - tQueue
	if req.Net != nil {
		ev.Net = req.Net.Name
		ev.Pins = len(req.Net.Pins)
	}
	// Echo the normalized options in the event when they are valid; an
	// invalid combination surfaces as a routing error below with the raw
	// options omitted.
	if norm, err := ValidateRouteOptions(req.RouteOptions); err == nil {
		ev.Algo, ev.Oracle, ev.Workers = norm.Algo, norm.Oracle, norm.Workers
	}
	if req.Net == nil {
		s.metrics.Add(CtrRouteErrors, 1)
		s.failRoute(w, r, meta, &ev, http.StatusBadRequest, olog.OutcomeError, "missing net")
		return
	}

	s.metrics.Add(CtrRouteRequests, 1)
	span := obs.StartSpan(s.metrics, TimeRouteSeconds)
	ring := trace.NewRing(s.opts.TraceCapacity)
	// A private registry scoped to this request rides alongside the shared
	// one: its counters ARE the request's deltas (no subtraction races)
	// and its core.oracle.seconds sum is this request's oracle time.
	priv := obs.NewRegistry()
	res, err := RunTagged(req.Net, req.RouteOptions, meta.id, obs.Multi{priv, s.metrics}, ring)
	span.End()
	tRun := meta.elapsed()
	runSeconds := tRun - tDecode

	snap := priv.Snapshot()
	ev.Candidates = snap.Counters[obs.CtrSweepCandidates]
	ev.Accepted = snap.Counters[obs.CtrAcceptedEdges]
	ev.Pruned = snap.Counters[obs.CtrCandidatesPruned]
	ev.OracleEvals = snap.Counters[obs.CtrOracleEvaluations]
	ev.CacheHits = snap.Counters[obs.CtrIncrementalHits]
	oracleSeconds := snap.Timings[obs.TimeOracleSeconds].Sum
	if oracleSeconds > runSeconds {
		// Concurrent workers accumulate span time faster than wall time;
		// clamp so the phases still sum to the total.
		oracleSeconds = runSeconds
	}
	ev.OracleSeconds = oracleSeconds
	ev.SweepSeconds = runSeconds - oracleSeconds

	if err != nil {
		s.metrics.Add(CtrRouteErrors, 1)
		s.failRoute(w, r, meta, &ev, http.StatusUnprocessableEntity, olog.OutcomeError, "routing failed: %v", err)
		return
	}
	if r.Context().Err() == context.DeadlineExceeded {
		// The client already received the timeout 503; retaining the trace
		// would let an abandoned run evict traces of answered requests, so
		// only the wide event records this request.
		ev.Status = http.StatusServiceUnavailable
		ev.Outcome = olog.OutcomeTimeout
		ev.Error = "request timed out"
		s.emit(meta, &ev)
		return
	}

	st := &storedTrace{id: fmt.Sprintf("t%06d", s.traceSeq.Add(1)), ring: ring, req: req}
	s.storeTrace(st)
	tStore := meta.elapsed()
	ev.StoreSeconds = tStore - tRun
	ev.TraceID = st.id
	ev.TraceEvents = ring.Len()
	ev.TraceDropped = ring.Dropped()
	ev.Status = http.StatusOK
	ev.Outcome = olog.OutcomeOK

	writeJSON(w, http.StatusOK, RouteResponse{
		RouteResult:  res,
		RequestID:    meta.id,
		TraceID:      st.id,
		TraceEvents:  ev.TraceEvents,
		TraceDropped: ev.TraceDropped,
		Phases: &PhaseBreakdown{
			QueueSeconds:  ev.QueueSeconds,
			DecodeSeconds: ev.DecodeSeconds,
			SweepSeconds:  ev.SweepSeconds,
			OracleSeconds: ev.OracleSeconds,
			StoreSeconds:  ev.StoreSeconds,
			TotalSeconds:  tStore,
		},
	})
	s.emit(meta, &ev)
}

func (s *Server) storeTrace(st *storedTrace) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.traces[st.id] = s.order.PushBack(st)
	for s.order.Len() > s.opts.MaxTraces {
		oldest := s.order.Remove(s.order.Front()).(*storedTrace)
		delete(s.traces, oldest.id)
		s.metrics.Add(CtrTraceEvictions, 1)
	}
}

func (s *Server) lookupTrace(id string) *storedTrace {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.traces[id]
	if !ok {
		return nil
	}
	// A fetch refreshes retention: the traces being inspected stay around.
	s.order.MoveToBack(el)
	return el.Value.(*storedTrace)
}

// traceRetained reports whether the trace is still within retention
// WITHOUT refreshing its LRU position — inspecting a log must not change
// which traces get evicted next.
func (s *Server) traceRetained(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.traces[id]
	return ok
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/traces/")
	if id == "" || strings.ContainsRune(id, '/') {
		writeError(w, http.StatusNotFound, "no such trace")
		return
	}
	st := s.lookupTrace(id)
	if st == nil {
		writeError(w, http.StatusNotFound, "trace %q not retained", id)
		return
	}
	if r.URL.Query().Get("request") == "1" {
		// The provenance view: the exact request that produced the trace,
		// ready to feed back into tracereplay -request.
		writeJSON(w, http.StatusOK, st.req)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Trace-Dropped", fmt.Sprintf("%d", st.ring.Dropped()))
	if err := st.ring.WriteJSONL(w); err != nil {
		// Headers are gone; nothing to do but drop the connection.
		return
	}
}

// handleLogs serves the wide-event log: plain GET /logs streams every
// retained event as canonical JSONL (oldest first); GET /logs?request=<id>
// resolves one request. Resolution tombstones rather than 404s a stale
// exemplar: when the event's trace has already aged out of retention, the
// event is served with trace_tombstoned set — the request's history
// outlives its trace (DESIGN.md §16). 404 means the event itself was
// evicted (or never existed).
func (s *Server) handleLogs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if s.logs == nil {
		writeError(w, http.StatusNotFound, "request logging disabled")
		return
	}
	if id := r.URL.Query().Get("request"); id != "" {
		ev, ok := s.logs.Find(id)
		if !ok {
			writeError(w, http.StatusNotFound, "request %q not retained", id)
			return
		}
		if ev.TraceID != "" && !s.traceRetained(ev.TraceID) {
			ev.TraceTombstoned = true
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = olog.WriteJSONL(w, []olog.Event{ev})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Log-Dropped", fmt.Sprintf("%d", s.logs.Dropped()))
	_ = s.logs.WriteJSONL(w)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.WritePrometheus(w, s.metrics.Snapshot())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := http.StatusOK
	state := "ok"
	if s.draining.Load() {
		status = http.StatusServiceUnavailable
		state = "draining"
	}
	writeJSON(w, status, struct {
		Status   string `json:"status"`
		Inflight int64  `json:"inflight"`
	}{state, s.inflight.Load()})
}

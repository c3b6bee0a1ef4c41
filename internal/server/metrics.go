package server

import (
	"log/slog"
	"net/http"
	netpprof "net/http/pprof"
	"time"

	"locsched/internal/experiment"
	"locsched/internal/obs"
)

// serverObs bundles one server's observability state: its metrics
// registry (served at /metricsz), the structured logger behind access
// and span records, and the latency histograms on the request path,
// each declared by its tag (obs.Bind, hence exported). Every instrument
// lives on the per-server registry, so embedded and test servers never
// share series.
type serverObs struct {
	// reg is the server's metrics registry, rendered at /metricsz.
	reg *obs.Registry
	// logger receives access lines (Info) and trace spans (Debug).
	logger *slog.Logger

	RequestSeconds      *obs.Histogram `metric:"locsched_server_request_seconds" help:"End-to-end HTTP request latency."`
	QueueWaitSeconds    *obs.Histogram `metric:"locsched_server_queue_wait_seconds" help:"Admitted job wait from enqueue to worker dequeue."`
	CoalesceWaitSeconds *obs.Histogram `metric:"locsched_server_coalesce_wait_seconds" help:"Coalesced follower wait from join to shared result."`
	ExecutionSeconds    *obs.Histogram `metric:"locsched_server_execution_seconds" help:"Worker-pool job execution time."`

	// responses counts served responses by result class (the
	// X-Locsched-Result values writeBody passes), pre-registered so all
	// classes render from the first scrape.
	responses map[string]*obs.Counter
}

// newServerObs builds the observability state. A nil logger selects the
// discard logger so embedded and test servers stay silent by default.
func newServerObs(logger *slog.Logger) *serverObs {
	if logger == nil {
		logger = obs.Discard()
	}
	o := &serverObs{reg: obs.NewRegistry(), logger: logger, responses: make(map[string]*obs.Counter)}
	o.reg.Bind(o)
	for _, class := range []string{"cold", "cached", "disk", "coalesced", "peer"} {
		o.responses[class] = o.reg.Counter("locsched_server_responses_total",
			"Served responses by result class (X-Locsched-Result).",
			obs.L("class", class))
	}
	return o
}

// registerGauges publishes the queue/coalescer/cache gauges sampled from
// their owners (/statsz reads them back by name), a configured store's
// degraded flag, and the experiment layer's process-wide cache counters.
// Called once from New, after the sampled structures exist.
func (s *Server) registerGauges() {
	r := s.obs.reg
	r.GaugeFunc("locsched_server_queue_depth",
		"Jobs waiting in the bounded queue now.",
		func() float64 { return float64(len(s.jobs)) })
	r.GaugeFunc("locsched_server_queue_capacity",
		"Configured job queue bound.",
		func() float64 { return float64(cap(s.jobs)) })
	r.GaugeFunc("locsched_server_inflight_keys",
		"Distinct keys currently executing or queued (coalescer pending set).",
		func() float64 { return float64(s.flight.pending()) })
	r.GaugeFunc("locsched_cache_memory_entries",
		"Result cache entry count.",
		func() float64 { return float64(s.cache.len()) })
	r.GaugeFunc("locsched_cache_memory_bytes",
		"Result cache stored body bytes.",
		func() float64 { return float64(s.cache.size()) })
	if s.store != nil || s.storeErr != nil {
		r.GaugeFunc("locsched_store_degraded",
			"1 while the configured persistent store is unavailable (open failed or breaker not closed).",
			func() float64 {
				if s.storeDegraded() {
					return 1
				}
				return 0
			})
	}
	obs.Publish(r, experiment.Stats)
}

// mountObsEndpoints registers /metricsz and (when enabled) the
// net/http/pprof handlers on the server mux.
func (s *Server) mountObsEndpoints() {
	s.mux.Handle("/metricsz", s.obs.reg.Handler())
	if s.cfg.Pprof {
		s.mux.HandleFunc("/debug/pprof/", netpprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
	}
}

// statusWriter captures the response status, body size, and result
// class for the access log while delegating to the real writer.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

// WriteHeader records the status before delegating.
func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Write accumulates the body size before delegating.
func (w *statusWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// withObs is the serving middleware: it adopts a valid inbound
// X-Locsched-Trace-Id (how one request stays correlatable across fleet
// replicas) or mints a fresh id, echoes it on the response, carries the
// trace on the request context for span emission downstream, times the
// request into the latency histogram, and writes one structured access
// line. Response bodies are untouched — observability must never change
// served bytes.
func (s *Server) withObs(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get(obs.TraceHeader)
		if !obs.ValidTraceID(id) {
			id = obs.NewTraceID()
		}
		tr := obs.NewTrace(id, s.obs.logger)
		w.Header().Set(obs.TraceHeader, id)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r.WithContext(obs.Into(r.Context(), tr)))
		d := time.Since(start)
		s.obs.RequestSeconds.Observe(d.Seconds())
		s.obs.logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("trace_id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.String("class", sw.Header().Get(ResultHeader)),
			slog.Int64("bytes", sw.bytes),
			slog.Duration("dur", d))
	})
}

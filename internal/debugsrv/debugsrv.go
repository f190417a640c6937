// Package debugsrv is the CLIs' shared -debug-addr server: /metrics in
// Prometheus text form plus the runtime's /debug/pprof endpoints, with
// the two properties the old fire-and-forget goroutine lacked — the
// listen error surfaces synchronously (a typo'd address is a usage
// error, not a log line racing process exit), and shutdown is graceful
// and bounded (an in-flight scrape gets a moment to finish; a hung one
// cannot wedge exit).
//
// Beyond metrics and pprof the server speaks the usual operational
// probes: /healthz answers 200 for the life of the process, /readyz
// flips from 503 to 200 once the campaign opens its first phase span,
// and /trace serves the execution trace recorded so far as Chrome
// trace-event JSON (downloadable mid-run — the recorder's snapshot
// read is safe against concurrent span appends). /trace/{id} serves
// per-job traces through Config.TraceFor — the campaign service wires
// it to its job table. Register grafts all of it onto an existing mux
// for processes that already serve HTTP.
package debugsrv

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"limscan/internal/obs"
	"limscan/internal/trace"
)

// Config wires the server's data sources. All fields are optional:
// endpoints whose source is absent degrade honestly (empty metrics,
// never-ready /readyz only if no Ready func AND no readiness source,
// 404 /trace).
type Config struct {
	// Registry backs /metrics; nil serves an empty exposition.
	Registry *obs.Registry
	// Ready backs /readyz: the endpoint answers 200 once Ready returns
	// true. Nil means always ready. The CLIs pass their recorder's
	// Started method, so readiness flips exactly when the first phase
	// span opens; the campaign service flips it once crash
	// recovery has re-queued every incomplete job.
	Ready func() bool
	// Trace backs /trace; nil makes the endpoint 404.
	Trace *trace.Recorder
	// TraceFor backs the per-job /trace/{id} endpoint: given an id it
	// returns that job's trace source, or nil for 404. The campaign
	// service wires this to its job table so every running or finished
	// campaign exposes its own execution trace — in distributed mode a
	// stitched multi-process view including the worker spans shipped
	// under that job. Nil makes /trace/{id} 404.
	TraceFor func(id string) TraceSource
}

// TraceSource is anything that can render itself as Chrome trace-event
// JSON: a live *trace.Recorder, or a stitched fleet *trace.Model.
type TraceSource interface {
	WriteJSON(w io.Writer) error
}

// Server is a running debug HTTP server. The zero value and nil are
// inert; use Start.
type Server struct {
	srv  *http.Server
	addr string
	done chan struct{} // closed when Serve returns
	err  error         // Serve's verdict, readable after done
}

// DefaultShutdownTimeout bounds Shutdown when callers pass zero.
const DefaultShutdownTimeout = 2 * time.Second

// Register mounts every debug endpoint on mux: /metrics, /healthz,
// /readyz, /trace, /trace/{id} and /debug/pprof/*. It exists so a
// process that already owns an HTTP server — the campaign service —
// can graft the operational endpoints onto its own mux instead of
// running a second listener; Start and Handler are thin wrappers.
func Register(mux *http.ServeMux, cfg Config) {
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if cfg.Registry != nil {
			_ = cfg.Registry.WritePrometheus(w)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		// Liveness: the server answering at all is the signal.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if cfg.Ready != nil && !cfg.Ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = w.Write([]byte("starting\n"))
			return
		}
		_, _ = w.Write([]byte("ready\n"))
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		// The explicit nil check matters: a nil *trace.Recorder boxed
		// into the interface would not compare equal to nil inside
		// serveTrace and an empty trace would masquerade as a real one.
		if cfg.Trace == nil {
			http.NotFound(w, r)
			return
		}
		serveTrace(w, r, cfg.Trace, "limscan-trace.json")
	})
	mux.HandleFunc("/trace/{id}", func(w http.ResponseWriter, r *http.Request) {
		if cfg.TraceFor == nil {
			http.NotFound(w, r)
			return
		}
		id := r.PathValue("id")
		serveTrace(w, r, cfg.TraceFor(id), "limscan-trace-"+id+".json")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// serveTrace writes a trace source's Chrome trace-event JSON, or 404
// when the source is absent (no trace collected under that name).
func serveTrace(w http.ResponseWriter, r *http.Request, tr TraceSource, filename string) {
	if tr == nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="`+filename+`"`)
	_ = tr.WriteJSON(w)
}

// Handler returns the debug endpoints as a standalone http.Handler.
func Handler(cfg Config) http.Handler {
	mux := http.NewServeMux()
	Register(mux, cfg)
	return mux
}

// Start listens on addr and serves in the background. The Listen call
// is synchronous so an unusable address fails here, at flag-handling
// time. An empty addr returns (nil, nil): the nil *Server is a no-op,
// so call sites need no "enabled?" branches.
func Start(addr string, cfg Config) (*Server, error) {
	if addr == "" {
		return nil, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	Register(mux, cfg)

	s := &Server{
		srv:  &http.Server{Handler: mux},
		addr: ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.err = err
		}
	}()
	return s, nil
}

// Addr returns the bound address (useful with ":0"), "" for nil.
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.addr
}

// Shutdown stops accepting connections and waits up to timeout (zero
// means DefaultShutdownTimeout) for in-flight requests; past the
// deadline remaining connections are closed hard. Nil-safe, idempotent
// enough for defer+explicit call sites.
func (s *Server) Shutdown(timeout time.Duration) error {
	if s == nil {
		return nil
	}
	if timeout <= 0 {
		timeout = DefaultShutdownTimeout
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if errors.Is(err, context.DeadlineExceeded) {
		// A wedged handler (an abandoned /debug/pprof/profile scrape, say)
		// must not hold the process hostage.
		err = s.srv.Close()
	}
	<-s.done
	if s.err != nil {
		return s.err
	}
	return err
}

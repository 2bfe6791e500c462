package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"qrdtm/internal/proto"
)

// Admin assembles the live-inspection HTTP surface of a node or client:
//
//	/metrics        expvar-style JSON: every registered source, evaluated
//	                at request time; ?format=prom (or an Accept header
//	                naming the 0.0.4 text format) switches to Prometheus
//	                text exposition of the attached registry
//	/healthz        liveness — plain "ok", or a JSON Health document when
//	                a health producer is registered
//	/trace          the attached registry's span buffer as JSON (trace
//	                collection for the merger/checker)
//	/heat           the attached registry's per-slot heat counters as JSON
//	                (full arrays plus ranked top slots and skew) — the input
//	                a load-aware reshard planner consumes
//	/debug/pprof/   the standard Go profiler endpoints
//
// Sources are named producer functions so the same mux serves whatever the
// process has — a replica registers its server metrics, a client its core
// metrics, transport stats and obs registry.
type Admin struct {
	mu      sync.Mutex
	sources map[string]func() any
	health  func() Health
	reg     *Registry
	auditor *Auditor
	started time.Time
}

// NewAdmin returns an empty admin surface.
func NewAdmin() *Admin {
	return &Admin{sources: make(map[string]func() any), started: time.Now()}
}

// Source registers (or replaces) a named metrics producer. fn is called on
// every /metrics request and its result is JSON-encoded under name.
func (a *Admin) Source(name string, fn func() any) *Admin {
	a.mu.Lock()
	a.sources[name] = fn
	a.mu.Unlock()
	return a
}

// WithRegistry attaches the registry backing /metrics?format=prom and
// /trace. Without one, the Prometheus format renders an empty registry and
// /trace serves an empty span list.
func (a *Admin) WithRegistry(r *Registry) *Admin {
	a.mu.Lock()
	a.reg = r
	a.mu.Unlock()
	return a
}

// WithAuditor attaches a streaming trace auditor. Its stats ride the
// /healthz document, and a node with recorded invariant violations reports
// status "audit-violation" so liveness probes catch protocol bugs, not just
// dead processes.
func (a *Admin) WithAuditor(aud *Auditor) *Admin {
	a.mu.Lock()
	a.auditor = aud
	a.mu.Unlock()
	return a
}

// Health is the /healthz document: enough for an operator to spot a node
// serving a stale quorum view or cut off from its peers.
type Health struct {
	Status    string `json:"status"`
	Node      int    `json:"node"`
	Role      string `json:"role"`
	ViewEpoch uint64 `json:"view_epoch"`
	PeersUp   int    `json:"peers_up"`
	PeersDown int    `json:"peers_down"`
	// Audit carries the streaming trace auditor's counters when one is
	// attached; absent otherwise, so pre-auditor probes parse unchanged.
	Audit *AuditStats `json:"audit,omitempty"`
}

// HealthSource registers the /healthz detail producer; without one the
// endpoint answers a bare "ok".
func (a *Admin) HealthSource(fn func() Health) *Admin {
	a.mu.Lock()
	a.health = fn
	a.mu.Unlock()
	return a
}

// wantsProm reports whether the request negotiated the Prometheus text
// exposition: an explicit ?format=prom, or an Accept header naming the
// 0.0.4 text format or OpenMetrics.
func wantsProm(r *http.Request) bool {
	if r.URL.Query().Get("format") == "prom" {
		return true
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "version=0.0.4") ||
		strings.Contains(accept, "application/openmetrics-text")
}

// metrics evaluates every source into one stable-ordered JSON document, or
// renders the attached registry in Prometheus text format when negotiated.
func (a *Admin) metrics(w http.ResponseWriter, r *http.Request) {
	if wantsProm(r) {
		a.mu.Lock()
		reg := a.reg
		a.mu.Unlock()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := WriteProm(w, reg.Snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	a.mu.Lock()
	names := make([]string, 0, len(a.sources))
	fns := make(map[string]func() any, len(a.sources))
	for n, fn := range a.sources {
		names = append(names, n)
		fns[n] = fn
	}
	uptime := time.Since(a.started)
	a.mu.Unlock()
	sort.Strings(names)

	doc := make(map[string]any, len(names)+1)
	doc["uptime_sec"] = uptime.Seconds()
	for _, n := range names {
		doc[n] = fns[n]()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Mux returns the handler serving /metrics, /healthz, /trace, /heat and
// /debug/pprof/.
func (a *Admin) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", a.metrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		a.mu.Lock()
		health := a.health
		auditor := a.auditor
		a.mu.Unlock()
		if health == nil && auditor == nil {
			w.Header().Set("Content-Type", "text/plain")
			fmt.Fprintln(w, "ok")
			return
		}
		var h Health
		if health != nil {
			h = health()
		} else {
			h.Status = "ok"
		}
		if auditor != nil {
			st := auditor.Stats()
			h.Audit = &st
			if st.Violations > 0 {
				h.Status = "audit-violation"
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(h); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		a.mu.Lock()
		reg := a.reg
		a.mu.Unlock()
		spans := reg.Spans().Spans()
		if spans == nil {
			spans = []proto.Span{}
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(spans); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/heat", func(w http.ResponseWriter, r *http.Request) {
		// ?top=k bounds the ranked slot list. Validation is strict — a bad
		// value is a 400, not a silent clamp: a planner asking for top=500
		// must learn the table only has NumSlots slots rather than read a
		// quietly truncated answer as complete.
		top := 10
		if q := r.URL.Query().Get("top"); q != "" {
			n, err := strconv.Atoi(q)
			if err != nil || n < 1 || n > proto.NumSlots {
				http.Error(w, fmt.Sprintf("invalid top %q: want an integer in [1, %d]", q, proto.NumSlots),
					http.StatusBadRequest)
				return
			}
			top = n
		}
		a.mu.Lock()
		reg := a.reg
		a.mu.Unlock()
		h := reg.HeatSnapshot()
		rows := h.TopSlots(top)
		if rows == nil {
			rows = []SlotHeat{} // zero traffic renders "top": [], not null
		}
		doc := struct {
			Heat *HeatSnapshot `json:"heat"`
			Top  []SlotHeat    `json:"top"`
			Skew float64       `json:"skew"`
		}{Heat: h, Top: rows, Skew: h.Skew()}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ListenAndServe binds addr (":0" picks a free port), serves the admin mux
// in the background, and returns the bound address plus a shutdown func.
// Binding errors surface synchronously so a mistyped -admin flag fails
// fast instead of logging from a goroutine.
func (a *Admin) ListenAndServe(addr string) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: admin listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: a.Mux()}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Close, nil
}

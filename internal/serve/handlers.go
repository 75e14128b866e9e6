package serve

import (
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"

	"pactrain/internal/collective"
	"pactrain/internal/core"
	"pactrain/internal/harness"
	"pactrain/internal/harness/engine"
)

// Handler routes the service API:
//
//	POST /v1/experiments      submit a job (202; coalesces onto in-flight twins)
//	GET  /v1/experiments      list the experiment registry
//	GET  /v1/schemes          list the aggregation-scheme catalog
//	GET  /v1/collectives      list the collective-algorithm catalog
//	GET  /v1/jobs             list jobs in submission order
//	GET  /v1/jobs/{id}        job status + per-job engine progress
//	GET  /v1/jobs/{id}/result finished report bytes (CLI -json compatible)
//	GET  /v1/jobs/{id}/audit  finished counterfactual audit artifact
//	GET  /v1/jobs/{id}/events live SSE stream (Last-Event-ID replay)
//	GET  /v1/stats            engine counters, job tallies, recent events
//	GET  /healthz             liveness (503 while draining)
//	GET  /metrics             Prometheus text exposition
//	GET  /cache/v1/entry/{fp} cache-peer protocol (engine/peer.go)
//
// With Options.PProf, net/http/pprof is additionally served under
// /debug/pprof/.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/experiments", s.handleSubmit)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("GET /v1/schemes", s.handleSchemes)
	mux.HandleFunc("GET /v1/collectives", s.handleCollectives)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/audit", s.handleAudit)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	// The cache-peer protocol (engine/peer.go): sibling instances resolve
	// fingerprints against this server's cache and in-flight trainings.
	mux.Handle("/cache/v1/", engine.NewPeerServer(s.engine))
	if s.opt.PProf {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// submitResponse is the body of POST /v1/experiments.
type submitResponse struct {
	// JobID names the job to poll; identical in-flight submissions receive
	// the same id.
	JobID string `json:"job_id"`
	// Coalesced is true when this submission was folded onto an existing
	// in-flight job rather than creating one.
	Coalesced bool    `json:"coalesced"`
	Job       JobView `json:"job"`
}

// clientID identifies the caller for rate limiting: an explicit
// X-Client-Id header (trusted deployments put a stable identity here), else
// the remote IP (ports churn per connection and would defeat the bucket).
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-Id"); id != "" {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// writeTooBusy renders a 429. Every 429 the service emits carries a
// Retry-After: the typed estimate when the rejection supplied one, else a
// conservative 1s floor.
func writeTooBusy(w http.ResponseWriter, err error) {
	retry := 1
	var tb *TooBusyError
	if errors.As(err, &tb) && tb.RetryAfterSec > 0 {
		retry = tb.RetryAfterSec
	}
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	writeError(w, http.StatusTooManyRequests, err)
}

// maxSubmitBytes bounds a submission body; a SubmitRequest is well under
// 1 KiB.
const maxSubmitBytes = 4 << 10

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if err := s.Admit(clientID(r)); err != nil {
		writeTooBusy(w, err)
		return
	}
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		status := http.StatusBadRequest
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, err)
		return
	}
	view, coalesced, err := s.Submit(req)
	if err != nil {
		switch {
		case errors.Is(err, ErrUnknownExperiment), errors.Is(err, ErrUnknownCollective),
			errors.Is(err, ErrUnknownOverlap), errors.Is(err, ErrUnknownPriority), errors.Is(err, ErrBadSize):
			writeError(w, http.StatusBadRequest, err)
		case errors.Is(err, ErrDraining):
			writeError(w, http.StatusServiceUnavailable, err)
		case errors.Is(err, ErrQueueFull), errors.Is(err, ErrRateLimited):
			writeTooBusy(w, err)
		default:
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, submitResponse{JobID: view.ID, Coalesced: coalesced, Job: view})
}

// experimentView is one registry entry on GET /v1/experiments.
type experimentView struct {
	ID    string `json:"id"`
	Title string `json:"title"`
}

func (s *Server) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	defs := harness.Experiments()
	out := make([]experimentView, len(defs))
	for i, def := range defs {
		out[i] = experimentView{ID: def.ID, Title: def.Title}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleSchemes serves the aggregation-scheme catalog — the same registry
// behind Config.Scheme validation and `pactrain-bench -list-schemes`.
func (s *Server) handleSchemes(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, core.SchemeCatalog())
}

// handleCollectives serves the collective-algorithm catalog — the registry
// behind Config.Collective validation and `pactrain-bench
// -list-collectives`, mirroring the scheme catalog's shape.
func (s *Server) handleCollectives(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, collective.AlgorithmCatalog())
}

func (s *Server) handleJobs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	view, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown job id"))
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	raw, view, ok := s.Result(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown job id"))
		return
	}
	switch view.State {
	case JobDone:
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(raw)
	case JobFailed:
		writeError(w, http.StatusInternalServerError, errors.New(view.Error))
	default:
		// Not finished: report the state so pollers can keep waiting.
		writeJSON(w, http.StatusConflict, view)
	}
}

// handleAudit serves a finished job's counterfactual audit artifact — the
// regret/calibration ledgers of every controller-driven run in the job's
// grid (audit.MarshalReports). Experiments with no controller runs finish
// without an artifact and 404.
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	raw, view, ok := s.Audit(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown job id"))
		return
	}
	switch view.State {
	case JobDone:
		if raw == nil {
			writeError(w, http.StatusNotFound, errors.New("no audit artifact for this job (experiment has no controller-driven runs)"))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(raw)
	case JobFailed:
		writeError(w, http.StatusInternalServerError, errors.New(view.Error))
	default:
		// Not finished: report the state so pollers can keep waiting.
		writeJSON(w, http.StatusConflict, view)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	// Stats() refreshes every scalar instrument from the same locked
	// snapshot /v1/stats serves, so the two endpoints cannot disagree; the
	// histograms observed at event time and render as-is.
	s.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(s.met.reg.Render()))
}

package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// HTTP/JSON front end. Admission errors map onto statuses a load
// balancer understands: 429 for a full queue (back off and retry),
// 503 while draining (retry elsewhere), 409 for a duplicate id, 404
// for an unknown job, 400 for a malformed request.

// submitRequest is the POST /api/v1/jobs body.
type submitRequest struct {
	ID       string `json:"id,omitempty"`
	Workload string `json:"workload"`
	Class    string `json:"class,omitempty"`
	// TimeoutMS is the wall-clock budget in milliseconds (0 = none).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// DeadlineCycles is the virtual-cycle deadline (0 = none).
	DeadlineCycles uint64 `json:"deadline_cycles,omitempty"`
}

// errorResponse is the structured rejection body.
type errorResponse struct {
	Error string `json:"error"`
	// Reason is a stable machine-readable cause: queue_full, draining,
	// duplicate_id, unknown_job, bad_request.
	Reason string `json:"reason"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	status, reason := http.StatusInternalServerError, "internal"
	switch {
	case errors.Is(err, ErrQueueFull):
		status, reason = http.StatusTooManyRequests, "queue_full"
	case errors.Is(err, ErrDraining):
		status, reason = http.StatusServiceUnavailable, "draining"
	case errors.Is(err, ErrDuplicateID):
		status, reason = http.StatusConflict, "duplicate_id"
	case errors.Is(err, ErrUnknownJob):
		status, reason = http.StatusNotFound, "unknown_job"
	default:
		status, reason = http.StatusBadRequest, "bad_request"
	}
	writeJSON(w, status, errorResponse{Error: err.Error(), Reason: reason})
}

// Handler returns the daemon's HTTP mux.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("POST /api/v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	return mux
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, fmt.Errorf("service: bad request body: %w", err))
		return
	}
	class, err := ParseClass(req.Class)
	if err != nil {
		writeError(w, err)
		return
	}
	view, err := s.Submit(Spec{
		ID:             req.ID,
		Workload:       req.Workload,
		Class:          class,
		Timeout:        time.Duration(req.TimeoutMS) * time.Millisecond,
		DeadlineCycles: req.DeadlineCycles,
	})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, view)
}

func (s *Service) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.List())
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	view, err := s.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	canceled, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"canceled": canceled})
}

func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.m.reg.WriteText(w)
}

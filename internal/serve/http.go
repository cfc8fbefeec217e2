package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
)

// maxSpecBytes bounds request bodies: a job spec is a page of JSON, so
// anything larger is rejected before it touches memory proportional to the
// client's appetite.
const maxSpecBytes = 1 << 20

// Handler returns the service's HTTP API:
//
//	POST /api/v1/jobs              submit a spec (JSON body)
//	GET  /api/v1/jobs              list jobs
//	GET  /api/v1/jobs/{id}         one job's state
//	GET  /api/v1/jobs/{id}/events  progress stream: NDJSON, or SSE when
//	                               Accept: text/event-stream; ?after=N
//	                               resumes past sequence N; ?wait=false
//	                               returns the buffered events and closes
//	GET  /api/v1/jobs/{id}/result  the rendered outcome table (byte-equal
//	                               to the batch CLI's stdout)
//	GET  /metrics                  serve.* registry as text; JSON with
//	                               Accept: application/json
//	GET  /healthz                  liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// writeJSON is the uniform response encoder.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if len(body) > maxSpecBytes {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			map[string]string{"error": fmt.Sprintf("spec exceeds %d bytes", maxSpecBytes)})
		return
	}
	spec, err := Parse(body)
	if err != nil {
		var se *SpecError
		if errors.As(err, &se) {
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": se.Error(), "spec_error": se})
			return
		}
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	j, retryAfter, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrOverCapacity):
		w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter.Seconds())))
		writeJSON(w, http.StatusTooManyRequests, map[string]string{
			"error":       err.Error(),
			"retry_after": retryAfter.String(),
		})
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
	default:
		writeJSON(w, http.StatusCreated, j)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, j)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.Job(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown job"})
		return
	}
	if j.State != StateDone {
		writeJSON(w, http.StatusConflict, map[string]string{
			"error": fmt.Sprintf("job is %s, result exists once done", j.State)})
		return
	}
	buf, err := os.ReadFile(filepath.Join(jobDir(s.opts.StateDir, id), "result.txt"))
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(buf)
}

// handleEvents streams a job's progress. NDJSON by default; SSE ("data:"
// frames with event sequence IDs) when the client asks for
// text/event-stream. The stream replays buffered events past ?after=N,
// then follows live until the job reaches a terminal state or the client
// disconnects. ?wait=false turns it into a non-blocking catch-up read.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	h := s.hub(id)
	if h == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown job"})
		return
	}
	after := 0
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad after: " + err.Error()})
			return
		}
		after = n
	}
	// SSE reconnects resume via Last-Event-ID without client-side state.
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > after {
			after = n
		}
	}
	sse := r.Header.Get("Accept") == "text/event-stream"
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	flusher, _ := w.(http.Flusher)
	emit := func(e Event) error {
		var err error
		if sse {
			var buf []byte
			if buf, err = json.Marshal(e); err == nil {
				_, err = fmt.Fprintf(w, "id: %d\ndata: %s\n\n", e.Seq, buf)
			}
		} else {
			err = json.NewEncoder(w).Encode(e)
		}
		if flusher != nil {
			flusher.Flush()
		}
		return err
	}
	if r.URL.Query().Get("wait") == "false" {
		for _, e := range h.snapshot(after) {
			if emit(e) != nil {
				return
			}
		}
		return
	}
	for {
		e, ok := h.nextCtx(r.Context(), after)
		if !ok {
			return
		}
		if emit(e) != nil {
			return
		}
		after = e.Seq
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	reg := s.Metrics()
	if r.Header.Get("Accept") == "application/json" {
		w.Header().Set("Content-Type", "application/json")
		reg.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	reg.WriteText(w)
}

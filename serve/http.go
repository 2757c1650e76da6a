package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"alice/internal/jobq"
	"alice/internal/store"
)

// maxRequestBody bounds POST bodies (Verilog sources are small; this
// is generous).
const maxRequestBody = 32 << 20

// maxWait bounds the long-poll duration of GET /v1/jobs/{id}?wait=...
const maxWait = 5 * time.Minute

// routes wires the HTTP API:
//
//	POST   /v1/jobs          submit a JobRequest  -> JobStatus (201;
//	                         succeeded at once when the result is
//	                         stored, else queued)
//	GET    /v1/jobs          list jobs            -> []JobStatus
//	GET    /v1/jobs/{id}     one job; ?wait=30s long-polls until
//	                         terminal             -> JobStatus
//	DELETE /v1/jobs/{id}     cancel               -> JobStatus
//	GET    /v1/stats         service-wide accounting: store, cache,
//	                         queue census + monotonic totals, health
//	GET    /v1/store/stats   older alias of /v1/stats
//	POST   /v1/store/compact rewrite the log to live records only
//	GET    /healthz          readiness: 200 ok / 503 degraded (with
//	                         Retry-After = the probe loop's backoff)
func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/store/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/store/compact", s.handleCompact)
}

// apiError is the JSON error body.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, apiError{Error: err.Error()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.health()
	code := http.StatusOK
	if h.Status != "ok" {
		code = http.StatusServiceUnavailable
		// Tell pollers when the daemon will next look at the disk
		// itself: probing /healthz more often than that learns nothing.
		w.Header().Set("Retry-After", strconv.Itoa(h.RetryAfterS))
	}
	writeJSON(w, code, h)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Admission control: refuse new work while the backlog is at
	// capacity. Running jobs don't count — only the queued depth a new
	// submission would grow. 503 + Retry-After tells well-behaved
	// clients to back off instead of timing out on a long poll.
	if s.queue.Queued() >= s.opts.MaxQueueDepth {
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable,
			errors.New("queue full: retry later"))
		return
	}
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Validate now so malformed requests fail the HTTP call, not an
	// async job the client would have to poll to see fail. A design
	// seen before costs no front-end work here or in the job.
	pj, err := s.prepare(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	start := time.Now()
	payload, err := json.Marshal(&req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	opts := jobq.SubmitOptions{
		Name:    req.Name,
		Timeout: time.Duration(req.TimeoutMS) * time.Millisecond,
	}
	// A request with a stored result is answered now: its job is
	// journaled already succeeded and never queued.
	var job jobq.Job
	if res, ok := s.memoHit(pj, start); ok {
		if job, err = s.queue.Complete(payload, res, opts); err == nil {
			s.memoHits.Add(1)
		}
	} else {
		job, err = s.queue.Submit(payload, opts)
	}
	if err != nil {
		// A sealed store means the journal cannot commit the submission;
		// acknowledging it anyway would promise durability we don't
		// have. Refuse with 503 until the probe loop heals the disk.
		if errors.Is(err, jobq.ErrQueueClosed) || errors.Is(err, store.ErrSealed) {
			w.Header().Set("Retry-After", "5")
			writeError(w, http.StatusServiceUnavailable, err)
			return
		}
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusCreated, jobStatus(job))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.queue.List()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		js := jobStatus(j)
		js.Result = nil // listings stay slim; fetch one job for its result
		out = append(out, js)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.queue.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" && !job.State.Terminal() {
		d, err := time.ParseDuration(waitStr)
		if err != nil {
			writeError(w, http.StatusBadRequest, errors.New("wait: not a duration (try 30s)"))
			return
		}
		if d > maxWait {
			d = maxWait
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		// Wait returns the latest snapshot even when the timeout
		// expires first; the client sees the job still running.
		job, _ = s.queue.Wait(ctx, id)
	}
	writeJSON(w, http.StatusOK, jobStatus(job))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.queue.Get(id); !ok {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	s.queue.Cancel(id)
	job, _ := s.queue.Get(id)
	writeJSON(w, http.StatusOK, jobStatus(job))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.stats())
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if err := s.st.Compact(); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, s.st.Stats())
}

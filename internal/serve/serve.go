// Package serve is simulation-as-a-service: an HTTP API over the
// scenario/snapshot stack, backed by a sweep worker pool. A client
// POSTs a scenario document, tails the run's JSONL journal live, asks
// for a deterministic checkpoint mid-flight, and resumes a checkpoint
// as a new run — and every byte it sees is identical to what the batch
// CLI (`wmansim -scenario`) writes for the same document, because both
// paths run the same scenario.Run with the same journal code.
//
// Concurrency discipline: a run is owned by exactly one pool worker
// goroutine from build to finish; HTTP handlers never touch a live
// simulation. The only shared surface is the runState's byte buffer —
// journal bytes cross it under a mutex, readers block on a cond.
// Snapshots never reach into the live run either: because a snapshot
// is a pure function of (document, pause time), the snapshot handler
// replays a twin of the run to the requested time on its own pool
// worker and checkpoints that. Deterministic replay makes the twin's
// bytes identical to pausing the original, works equally for live and
// finished runs, and leaves the simulator exactly as deterministic as
// the CLI.
//
// The package deliberately uses no wall-clock APIs: run IDs come from
// a counter, progress from simulation time. Timing out an abandoned
// journal tail is the reverse proxy's job, not the simulator's.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"routeless/internal/metrics"
	"routeless/internal/scenario"
	"routeless/internal/sim"
	"routeless/internal/snapshot"
	"routeless/internal/sweep"
)

// maxBodyBytes bounds request bodies (scenario JSON and snapshot
// documents are both small).
const maxBodyBytes = 32 << 20

// Server routes the run API. Construct with New, mount via Handler.
type Server struct {
	mux  *http.ServeMux
	pool *sweep.Pool

	mu     sync.Mutex
	runs   map[string]*runState
	nextID int
}

// New builds a server over its own worker pool. Close releases it.
func New(workers int) *Server {
	s := &Server{
		mux:  http.NewServeMux(),
		pool: sweep.NewPool(workers),
		runs: make(map[string]*runState),
	}
	s.mux.HandleFunc("POST /runs", s.handleCreate)
	s.mux.HandleFunc("GET /runs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /runs/{id}/journal", s.handleJournal)
	s.mux.HandleFunc("POST /runs/{id}/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("POST /runs/{id}/resume", s.handleResume)
	return s
}

// Handler returns the route table.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains the worker pool. In-flight runs complete first.
func (s *Server) Close() { s.pool.Close() }

// runState is one run's shared surface between its owning worker and
// the HTTP handlers.
type runState struct {
	id string

	mu   sync.Mutex
	cond *sync.Cond
	// journal accumulates the run's JSONL bytes; readers stream it as
	// it grows.
	journal []byte
	now     sim.Time
	end     sim.Time
	done    bool
	err     string
	metrics *scenario.RunMetrics

	// source is what the run was built from — the scenario document,
	// or the snapshot doc a resume started at. The snapshot handler
	// replays a twin from it.
	sc  scenario.Scenario
	doc *snapshot.Doc
}

func newRunState(id string) *runState {
	rs := &runState{id: id}
	rs.cond = sync.NewCond(&rs.mu)
	return rs
}

// Write implements io.Writer for the run's journal: bytes land in the
// shared buffer and wake every streaming reader.
func (rs *runState) Write(p []byte) (int, error) {
	rs.mu.Lock()
	rs.journal = append(rs.journal, p...)
	rs.cond.Broadcast()
	rs.mu.Unlock()
	return len(p), nil
}

// finish marks the run complete (err empty on success) and wakes every
// streaming reader.
func (rs *runState) finish(m *scenario.RunMetrics, errMsg string) {
	rs.mu.Lock()
	rs.done = true
	rs.err = errMsg
	rs.metrics = m
	rs.cond.Broadcast()
	rs.mu.Unlock()
}

// setNow publishes simulation progress at a chunk boundary.
func (rs *runState) setNow(t sim.Time) {
	rs.mu.Lock()
	rs.now = t
	rs.mu.Unlock()
}

// register allocates the next run ID.
func (s *Server) register() *runState {
	s.mu.Lock()
	s.nextID++
	rs := newRunState(fmt.Sprintf("r%06d", s.nextID))
	s.runs[rs.id] = rs
	s.mu.Unlock()
	return rs
}

func (s *Server) lookup(id string) *runState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs[id]
}

// launch submits the run job: build from the run's source, journal
// into rs, advance in chunks publishing progress, finish.
func (s *Server) launch(rs *runState) {
	s.pool.Submit(func(ctx *sweep.Context) {
		defer func() {
			if p := recover(); p != nil {
				rs.finish(nil, fmt.Sprintf("panic: %v", p))
			}
		}()
		run, err := buildFrom(rs.sc, rs.doc, ctx)
		if err != nil {
			rs.finish(nil, err.Error())
			return
		}
		rs.mu.Lock()
		rs.now = run.Now()
		rs.end = run.End()
		rs.mu.Unlock()
		run.SetJournal(metrics.NewJournal(rs))

		step := sim.Time(run.Scenario().JournalEvery)
		if !(step > 0) {
			step = run.End() / 64
		}
		for run.Now() < run.End() {
			next := run.Now() + step
			if next >= run.End() {
				next = run.End()
			}
			if err := run.AdvanceTo(next); err != nil {
				rs.finish(nil, err.Error())
				return
			}
			rs.setNow(run.Now())
		}
		rm, ferr := run.Finish()
		msg := ""
		if ferr != nil {
			msg = ferr.Error()
		}
		rs.finish(&rm, msg)
	})
}

// buildFrom constructs a run on a pool worker from a run's source:
// a fresh build from the scenario document, or a replay-verified
// restore from a snapshot doc.
func buildFrom(sc scenario.Scenario, doc *snapshot.Doc, ctx *sweep.Context) (*scenario.Run, error) {
	opts := scenario.BuildOptions{Runtime: ctx.Runtime()}
	if doc != nil {
		return doc.Restore(opts)
	}
	return scenario.BuildWith(sc, opts)
}

// --- handlers ---

// statusDoc is the GET /runs/{id} response body.
type statusDoc struct {
	ID   string  `json:"id"`
	Now  float64 `json:"now"`
	End  float64 `json:"end"`
	Done bool    `json:"done"`
	Err  string  `json:"error,omitempty"`

	Metrics *scenario.RunMetrics `json:"metrics,omitempty"`
}

type createdDoc struct {
	ID string `json:"id"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// handleCreate starts a run from a scenario document.
func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sc, err := scenario.Parse(body)
	if err != nil {
		status := http.StatusBadRequest
		if !errors.Is(err, scenario.ErrParse) && !errors.Is(err, scenario.ErrInvalid) {
			status = http.StatusInternalServerError
		}
		writeError(w, status, err)
		return
	}
	rs := s.register()
	rs.sc = sc
	s.launch(rs)
	writeJSON(w, http.StatusCreated, createdDoc{ID: rs.id})
}

// handleStatus reports run progress and, once done, final metrics.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	rs := s.lookup(r.PathValue("id"))
	if rs == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such run"))
		return
	}
	rs.mu.Lock()
	doc := statusDoc{
		ID: rs.id, Now: float64(rs.now), End: float64(rs.end),
		Done: rs.done, Err: rs.err, Metrics: rs.metrics,
	}
	rs.mu.Unlock()
	writeJSON(w, http.StatusOK, doc)
}

// handleJournal streams the run's JSONL journal from the beginning,
// blocking while the run is live: a `curl` against it tails the run.
func (s *Server) handleJournal(w http.ResponseWriter, r *http.Request) {
	rs := s.lookup(r.PathValue("id"))
	if rs == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such run"))
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	flusher, _ := w.(http.Flusher)
	off := 0
	for {
		rs.mu.Lock()
		for off == len(rs.journal) && !rs.done {
			rs.cond.Wait()
		}
		chunk := rs.journal[off:]
		done := rs.done
		rs.mu.Unlock()
		if len(chunk) > 0 {
			if _, err := w.Write(chunk); err != nil {
				return // client went away; the run keeps going
			}
			off += len(chunk)
			if flusher != nil {
				flusher.Flush()
			}
		}
		if done && len(chunk) == 0 {
			return
		}
	}
}

// handleSnapshot checkpoints a run at simulation time ?at=T (omitted,
// the run's last published progress time). The handler never touches
// the live run: a twin is replayed from the run's source document to T
// on a pool worker and checkpointed there — deterministic replay makes
// the bytes identical to pausing the original, whether the run is
// still live or long finished. The response body is the binary
// snapshot document.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	rs := s.lookup(r.PathValue("id"))
	if rs == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such run"))
		return
	}
	rs.mu.Lock()
	at := rs.now
	rs.mu.Unlock()
	if q := r.URL.Query().Get("at"); q != "" {
		var v float64
		if _, err := fmt.Sscanf(q, "%g", &v); err != nil || !(v >= 0) {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad at=%q", q))
			return
		}
		at = sim.Time(v)
	}
	reply := make(chan snapReply, 1)
	s.pool.Submit(func(ctx *sweep.Context) {
		defer func() {
			if p := recover(); p != nil {
				reply <- snapReply{err: fmt.Errorf("panic: %v", p)}
			}
		}()
		run, err := buildFrom(rs.sc, rs.doc, ctx)
		if err != nil {
			reply <- snapReply{err: err}
			return
		}
		if err := run.AdvanceTo(at); err != nil {
			reply <- snapReply{err: err}
			return
		}
		var buf bytes.Buffer
		if err := snapshot.Save(&buf, run); err != nil {
			reply <- snapReply{err: err}
			return
		}
		reply <- snapReply{doc: buf.Bytes()}
	})
	rep := <-reply
	if rep.err != nil {
		writeError(w, http.StatusConflict, rep.err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(rep.doc)
}

// snapReply carries a checkpoint (or its failure) back from the pool
// worker that replayed it.
type snapReply struct {
	doc []byte
	err error
}

// handleResume starts a new run from a snapshot document body. The new
// run's journal holds only the records past the restore point — the
// client concatenates it after the original's prefix for the full
// stream.
func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	origin := s.lookup(r.PathValue("id"))
	if origin == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such run"))
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	doc, err := snapshot.Read(bytes.NewReader(body))
	if err != nil {
		status := http.StatusBadRequest
		if !errors.Is(err, snapshot.ErrTruncated) && !errors.Is(err, snapshot.ErrCorrupt) &&
			!errors.Is(err, snapshot.ErrVersion) {
			status = http.StatusInternalServerError
		}
		writeError(w, status, err)
		return
	}
	rs := s.register()
	rs.doc = doc
	s.launch(rs)
	writeJSON(w, http.StatusCreated, createdDoc{ID: rs.id})
}

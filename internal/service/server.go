package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Job lifecycle states.
const (
	// StateQueued: accepted, waiting for a worker slot.
	StateQueued = "queued"
	// StateRunning: a worker is executing the search.
	StateRunning = "running"
	// StateDone: completed; the verdict is final and cached.
	StateDone = "done"
	// StateFailed: the runner returned an error; see the status Error.
	StateFailed = "failed"
	// StateCancelled: cancelled before completion. A cancelled job may
	// still carry a partial (truncated) verdict, which is never cached.
	StateCancelled = "cancelled"
)

// Retryable wraps err to mark it transient: the server re-runs the job (up
// to Config.Retries times, with exponential backoff) instead of failing it.
// Errors not wrapped this way are treated as permanent — a deterministic
// search that failed once will fail identically on every retry, so retrying
// by default would only burn worker time.
func Retryable(err error) error {
	if err == nil {
		return nil
	}
	return &retryableError{err: err}
}

type retryableError struct{ err error }

func (e *retryableError) Error() string { return e.err.Error() }
func (e *retryableError) Unwrap() error { return e.err }

// IsRetryable reports whether err (or anything it wraps) was marked with
// Retryable.
func IsRetryable(err error) bool {
	var r *retryableError
	return errors.As(err, &r)
}

// job is one submitted verification job. Progress counters are atomics
// (written from the search goroutine, read by status polls); the remaining
// mutable fields are guarded by the server mutex.
type job struct {
	id        string
	digest    string
	spec      InstanceSpec
	recovered bool // re-enqueued from the journal at startup

	visited   atomic.Int64
	level     atomic.Int64
	ckptLevel atomic.Int64 // deepest level journalled as checkpointed

	// Guarded by Server.mu.
	state           string
	attempts        int // started attempts, across process restarts
	cancel          context.CancelFunc
	cancelRequested bool
	verdict         *Verdict
	errMsg          string
	degraded        string // durability degradation notice; sticky
}

// Config parameterizes New.
type Config struct {
	// Runner executes jobs; required.
	Runner Runner
	// Cache stores completed verdicts; required.
	Cache Cache
	// Workers bounds concurrently running jobs (default 2).
	Workers int
	// QueueDepth bounds jobs waiting for a worker (default 64); a full
	// queue rejects submissions with 503.
	QueueDepth int
	// Journal, when non-nil, makes the server crash-safe: every job
	// transition is appended durably, and New replays the journal's
	// non-terminal jobs back into the queue so a kill -9 loses no accepted
	// work. The server owns the journal from here on (Close closes it).
	Journal *Journal
	// JobTimeout bounds each job's wall clock (0 = unlimited). A job past
	// its deadline is cancelled onto the search's cooperative pause path
	// and settles as failed; its partial verdict is kept for inspection
	// but never cached.
	JobTimeout time.Duration
	// Retries is how many times a job whose runner error is marked
	// Retryable is re-run before settling as failed (default 0: no
	// retries). Permanent errors never retry.
	Retries int
	// RetryDelay is the base backoff before retry attempt n, scaled by
	// 2^n and jittered ±50% (default 100ms). Tests shrink it.
	RetryDelay time.Duration
}

// Server is the verification job server: a bounded worker pool draining a
// submission queue, a job registry for status polling and cancellation, and
// a content-addressed verdict cache consulted before any work is queued.
// With a Journal configured it is also crash-safe: accepted jobs survive
// kill -9 and resume from their search checkpoints after restart.
// All methods are safe for concurrent use.
type Server struct {
	runner     Runner
	cache      Cache
	journal    *Journal
	jobTimeout time.Duration
	retries    int
	retryDelay time.Duration

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string        // submission order, for deterministic listing
	byDigest map[string]*job // queued/running jobs, for duplicate-submit dedup
	nextID   int

	queue   chan *job
	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup
	closing atomic.Bool

	ready      atomic.Bool // recovery re-enqueue finished
	recovering atomic.Int64

	hits   atomic.Int64
	misses atomic.Int64
}

// New builds the server and starts its worker pool. Call Close (or
// Shutdown) to stop it.
//
// When cfg.Journal is set, New first recovers: it folds the journal's
// replayed records into the job registry — terminal jobs come back with
// their final state and verdict, non-terminal jobs come back queued — and
// re-enqueues the non-terminal ones in submission order. The registry and
// dedup index are rebuilt synchronously before New returns, so a duplicate
// submitted while recovery is still enqueueing dedups onto the recovered
// job rather than racing it; the re-enqueueing itself runs in the
// background (recovered jobs may outnumber the queue depth) and /readyz
// reports 503 until it completes.
func New(cfg Config) *Server {
	if cfg.Runner == nil || cfg.Cache == nil {
		panic("service: Config.Runner and Config.Cache are required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.RetryDelay <= 0 {
		cfg.RetryDelay = 100 * time.Millisecond
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		runner:     cfg.Runner,
		cache:      cfg.Cache,
		journal:    cfg.Journal,
		jobTimeout: cfg.JobTimeout,
		retries:    cfg.Retries,
		retryDelay: cfg.RetryDelay,
		jobs:       make(map[string]*job),
		byDigest:   make(map[string]*job),
		queue:      make(chan *job, cfg.QueueDepth),
		baseCtx:    ctx,
		stop:       stop,
	}
	var pending []*job
	if s.journal != nil {
		pending = s.recover(recoverJobs(s.journal.Replayed()))
	}
	s.recovering.Store(int64(len(pending)))
	if len(pending) == 0 {
		s.ready.Store(true)
	} else {
		s.wg.Add(1)
		go s.reenqueue(pending)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// recover rebuilds the registry from folded journal records and returns the
// non-terminal jobs to re-enqueue, in submission order. Runs before the
// worker pool starts; no locking needed.
func (s *Server) recover(recovered []*recoveredJob) []*job {
	var pending []*job
	for _, r := range recovered {
		j := &job{
			id:        r.id,
			digest:    r.digest,
			spec:      r.spec,
			recovered: true,
			state:     r.state,
			attempts:  r.attempts,
			verdict:   r.verdict,
			errMsg:    r.errMsg,
		}
		j.visited.Store(r.visited)
		j.level.Store(r.level)
		j.ckptLevel.Store(r.level)
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		if j.state == StateQueued {
			s.byDigest[j.digest] = j
			pending = append(pending, j)
		}
		var n int
		if _, err := fmt.Sscanf(j.id, "j%d", &n); err == nil && n > s.nextID {
			s.nextID = n
		}
	}
	return pending
}

// reenqueue feeds recovered jobs into the queue through the same bounded
// admission path as live submissions: a non-blocking try-send retried on a
// short tick. Recovered jobs may outnumber the queue depth, so this runs
// off New's critical path and fills queue slots as the workers free them —
// but never parks in a blocking send, so a wedged pool cannot pin this
// goroutine beyond its next tick and /readyz can always report the real
// backlog (recovering count plus queue occupancy) while recovery drains.
// Submissions racing recovery dedup against byDigest, which recover
// already populated.
func (s *Server) reenqueue(pending []*job) {
	defer s.wg.Done()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for _, j := range pending {
	admit:
		for {
			select {
			case <-s.baseCtx.Done():
				return
			case s.queue <- j:
				s.recovering.Add(-1)
				break admit
			default:
				select {
				case <-s.baseCtx.Done():
					return
				case <-tick.C:
				}
			}
		}
	}
	s.ready.Store(true)
}

// Shutdown stops the server gracefully: no new work starts, in-flight
// searches are cancelled onto their cooperative pause path, and Shutdown
// blocks until the workers drain or ctx expires (returning ctx.Err() in
// that case, with workers abandoned mid-cleanup). Jobs interrupted by
// shutdown are NOT journalled as cancelled — they stay non-terminal in the
// journal so the next start recovers and finishes them.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closing.Store(true)
	s.stop()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.mu.Lock()
	for _, j := range s.jobs {
		if j.state == StateQueued || j.state == StateRunning {
			// In-memory only: the journal keeps these non-terminal.
			j.state = StateCancelled
			delete(s.byDigest, j.digest)
		}
	}
	s.mu.Unlock()
	if s.journal != nil {
		return s.journal.Close()
	}
	return nil
}

// Close is Shutdown without a deadline: it blocks until the workers drain.
func (s *Server) Close() {
	_ = s.Shutdown(context.Background())
}

// journalAppend appends best-effort: failures after the submitted record
// are swallowed by design (see journal.go — a lost record only costs a
// re-run on the next restart, never a wrong verdict).
func (s *Server) journalAppend(rec JournalRecord) {
	if s.journal == nil {
		return
	}
	_ = s.journal.Append(rec)
}

// worker drains the queue until the server stops.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case j := <-s.queue:
			s.runJob(j)
		}
	}
}

// runJob executes one job — retrying runner errors marked Retryable with
// exponentially backed-off, jittered delays — and settles its final state.
// Cancelled and deadline-failed jobs keep their partial verdict for
// inspection but never populate the cache: only completed searches are
// deterministic functions of the digest.
func (s *Server) runJob(j *job) {
	var ctx context.Context
	var cancel context.CancelFunc
	if s.jobTimeout > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, s.jobTimeout)
	} else {
		ctx, cancel = context.WithCancel(s.baseCtx)
	}
	defer cancel()
	s.mu.Lock()
	if j.state != StateQueued {
		// Cancelled while waiting in the queue.
		s.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.cancel = cancel
	s.mu.Unlock()

	progress := func(u ProgressUpdate) {
		if u.Degraded != "" {
			// A durability degradation notice (checkpoint snapshots
			// failing): record it once on the job — it fires at most once
			// per search attempt, so the lock is off the hot path.
			s.mu.Lock()
			if j.degraded == "" {
				j.degraded = u.Degraded
			}
			s.mu.Unlock()
			return
		}
		j.visited.Store(int64(u.Visited))
		j.level.Store(int64(u.Level))
		// Each sealed level of a checkpoint-opted job has a resumable
		// snapshot on disk; record the progress durably so an operator can
		// see how far a crashed job had gotten.
		if lv := int64(u.Level); j.spec.Checkpoint && lv > j.ckptLevel.Load() {
			j.ckptLevel.Store(lv)
			s.journalAppend(JournalRecord{
				Job: j.id, Digest: j.digest, Event: EventCheckpointed,
				Visited: int64(u.Visited), Level: lv,
			})
		}
	}

	var v *Verdict
	var err error
	for attempt := 0; ; attempt++ {
		s.mu.Lock()
		j.attempts++
		seq := j.attempts - 1
		s.mu.Unlock()
		s.journalAppend(JournalRecord{Job: j.id, Digest: j.digest, Event: EventStarted, Attempt: seq})

		v, err = s.runner.Run(ctx, j.spec, progress)
		if err == nil || ctx.Err() != nil || attempt >= s.retries || !IsRetryable(err) {
			break
		}
		// Exponential backoff with ±50% jitter, abandoned on cancellation.
		delay := s.retryDelay << uint(attempt)
		delay += time.Duration(rand.Int63n(int64(delay)+1)) - delay/2
		select {
		case <-ctx.Done():
		case <-time.After(delay):
		}
		if ctx.Err() != nil {
			break
		}
	}
	timedOut := errors.Is(ctx.Err(), context.DeadlineExceeded)
	cancelled := ctx.Err() != nil && !timedOut

	var cacheErr error
	if err == nil && ctx.Err() == nil && v != nil {
		cacheErr = s.cache.Put(j.digest, v)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.byDigest, j.digest)
	j.cancel = nil
	switch {
	case timedOut:
		j.state = StateFailed
		j.verdict = v // partial, uncached
		j.errMsg = fmt.Sprintf("job exceeded deadline %v", s.jobTimeout)
		if err != nil {
			j.errMsg = fmt.Sprintf("%s: %v", j.errMsg, err)
		}
		s.journalAppend(JournalRecord{Job: j.id, Digest: j.digest, Event: EventFailed, Error: j.errMsg})
	case cancelled && s.closing.Load() && !j.cancelRequested:
		// Shutdown, not a client cancel: settle in memory only. The journal
		// keeps the job non-terminal so the next start recovers it.
		j.state = StateCancelled
		if err != nil {
			j.errMsg = err.Error()
		} else {
			j.verdict = v
		}
	case cancelled:
		j.state = StateCancelled
		if err != nil {
			j.errMsg = err.Error()
		} else {
			j.verdict = v
		}
		s.journalAppend(JournalRecord{Job: j.id, Digest: j.digest, Event: EventCancelled, Error: j.errMsg})
	case err != nil:
		j.state = StateFailed
		j.errMsg = err.Error()
		s.journalAppend(JournalRecord{Job: j.id, Digest: j.digest, Event: EventFailed, Error: j.errMsg})
	default:
		j.state = StateDone
		j.verdict = v
		if cacheErr != nil {
			j.errMsg = fmt.Sprintf("verdict complete but not cached: %v", cacheErr)
		}
		s.journalAppend(JournalRecord{Job: j.id, Digest: j.digest, Event: EventDone, Verdict: v})
	}
}

// Handler returns the server's HTTP API:
//
//	POST /v1/jobs             submit a job (InstanceSpec JSON body)
//	GET  /v1/jobs             list jobs in submission order
//	GET  /v1/jobs/{id}        poll one job's status and progress
//	POST /v1/jobs/{id}/cancel request cooperative cancellation
//	GET  /v1/cache/stats      verdict-cache hit/miss/entry counters
//	GET  /healthz             liveness probe
//	GET  /readyz              readiness: 503 while startup recovery is
//	                          still re-enqueueing journalled jobs
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /v1/cache/stats", s.handleCacheStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	return mux
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.ready.Load() {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
		return
	}
	writeJSON(w, http.StatusServiceUnavailable, map[string]any{
		"status":    "recovering",
		"pending":   s.recovering.Load(),
		"queue_len": len(s.queue),
		"queue_cap": cap(s.queue),
	})
}

// SubmitResponse is the POST /v1/jobs reply: a cached verdict (Cached),
// an already-in-flight duplicate (Deduped, with the existing job), or a
// freshly queued job.
type SubmitResponse struct {
	Digest  string   `json:"digest"`
	Cached  bool     `json:"cached,omitempty"`
	Deduped bool     `json:"deduped,omitempty"`
	JobID   string   `json:"job_id,omitempty"`
	State   string   `json:"state,omitempty"`
	Verdict *Verdict `json:"verdict,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var spec InstanceSpec
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("malformed instance: %v", err))
		return
	}
	digest, err := s.runner.Digest(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if v, ok, err := s.cache.Get(digest); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	} else if ok {
		s.hits.Add(1)
		writeJSON(w, http.StatusOK, SubmitResponse{Digest: digest, Cached: true, Verdict: v})
		return
	}
	s.misses.Add(1)

	s.mu.Lock()
	if dup := s.byDigest[digest]; dup != nil {
		resp := SubmitResponse{Digest: digest, Deduped: true, JobID: dup.id, State: dup.state}
		s.mu.Unlock()
		writeJSON(w, http.StatusAccepted, resp)
		return
	}
	s.nextID++
	j := &job{id: fmt.Sprintf("j%d", s.nextID), digest: digest, spec: spec, state: StateQueued}
	j.level.Store(-1)
	j.ckptLevel.Store(-1)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.byDigest[digest] = j
	s.mu.Unlock()

	// The submitted record is the one durability-critical write: a job the
	// journal does not know about would silently vanish on restart, so a
	// failed append rejects the submission outright.
	if s.journal != nil {
		err := s.journal.Append(JournalRecord{
			Job: j.id, Digest: digest, Event: EventSubmitted, Spec: &spec,
		})
		if err != nil {
			s.mu.Lock()
			delete(s.jobs, j.id)
			delete(s.byDigest, digest)
			s.order = s.order[:len(s.order)-1]
			s.mu.Unlock()
			writeError(w, http.StatusInternalServerError, fmt.Sprintf("journal write failed: %v", err))
			return
		}
	}

	select {
	case s.queue <- j:
	default:
		s.mu.Lock()
		j.state = StateFailed
		j.errMsg = "job queue full"
		delete(s.byDigest, digest)
		s.mu.Unlock()
		s.journalAppend(JournalRecord{Job: j.id, Digest: digest, Event: EventFailed, Error: "job queue full"})
		writeError(w, http.StatusServiceUnavailable, "job queue full")
		return
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{Digest: digest, JobID: j.id, State: StateQueued})
}

// Progress is a job's live search progress: the cumulative visited count
// and the most recently sealed BFS level (-1 before the first report and
// for depth-first searches).
type Progress struct {
	Visited int64 `json:"visited"`
	Level   int64 `json:"level"`
}

// JobStatus is the GET /v1/jobs/{id} reply.
type JobStatus struct {
	ID              string       `json:"id"`
	Digest          string       `json:"digest"`
	State           string       `json:"state"`
	CancelRequested bool         `json:"cancel_requested,omitempty"`
	Recovered       bool         `json:"recovered,omitempty"`
	Attempts        int          `json:"attempts,omitempty"`
	Spec            InstanceSpec `json:"spec"`
	Progress        Progress     `json:"progress"`
	Verdict         *Verdict     `json:"verdict,omitempty"`
	Error           string       `json:"error,omitempty"`
	// Degraded, when non-empty, reports that the job's crash durability
	// degraded mid-run (checkpoint snapshots failing): the verdict is
	// unaffected, but a crash now costs re-exploration from the last
	// snapshot that succeeded.
	Degraded string `json:"degraded,omitempty"`
}

// status snapshots a job; callers must hold s.mu.
func (s *Server) status(j *job) JobStatus {
	return JobStatus{
		ID:              j.id,
		Digest:          j.digest,
		State:           j.state,
		CancelRequested: j.cancelRequested,
		Recovered:       j.recovered,
		Attempts:        j.attempts,
		Spec:            j.spec,
		Progress:        Progress{Visited: j.visited.Load(), Level: j.level.Load()},
		Verdict:         j.verdict,
		Error:           j.errMsg,
		Degraded:        j.degraded,
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.status(s.jobs[id]))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	var st JobStatus
	if ok {
		st = s.status(j)
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	var cancel context.CancelFunc
	var journalCancel bool
	switch j.state {
	case StateQueued:
		// Never started: settle immediately; the worker will skip it.
		j.state = StateCancelled
		j.cancelRequested = true
		delete(s.byDigest, j.digest)
		journalCancel = true
	case StateRunning:
		j.cancelRequested = true
		cancel = j.cancel
	}
	st := s.status(j)
	s.mu.Unlock()
	if journalCancel {
		s.journalAppend(JournalRecord{Job: j.id, Digest: j.digest, Event: EventCancelled})
	}
	if cancel != nil {
		// Cooperative: the search notices at its next poll point and the
		// worker settles the job to cancelled; poll the status to observe.
		cancel()
	}
	writeJSON(w, http.StatusOK, st)
}

// CacheStats is the GET /v1/cache/stats reply.
type CacheStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
}

func (s *Server) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	n, err := s.cache.Len()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, CacheStats{Hits: s.hits.Load(), Misses: s.misses.Load(), Entries: n})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

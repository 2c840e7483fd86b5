// Package service is the long-lived fleet daemon behind cmd/tilevmd:
// a bounded, priority-classed admission queue in front of the
// deterministic fleet engine (core.RunFleet), with overload shedding,
// wall-clock timeouts, cancellation, panic containment, and graceful
// drain. The simulation itself stays the same deterministic engine —
// the service only decides which guests run when, and converts every
// way a batch can end (finish, deadline, timeout, cancel, panic) into
// a structured terminal job state. Overload never grows memory: the
// queue is capped, full-queue arrivals are shed or rejected with a
// structured error, and terminal jobs age out of a capped retention
// window.
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"tilevm/internal/core"
	"tilevm/internal/guest"
	"tilevm/internal/metrics"
	"tilevm/internal/translate"
	"tilevm/internal/workload"
)

// Structured admission errors; the HTTP layer maps each to a status.
var (
	// ErrQueueFull rejects an arrival that found the queue at capacity
	// with nothing lower-class to shed (HTTP 429).
	ErrQueueFull = errors.New("service: admission queue full")
	// ErrDraining rejects arrivals during graceful drain (HTTP 503).
	ErrDraining = errors.New("service: draining, not admitting new jobs")
	// ErrDuplicateID rejects a submission reusing a known id (409).
	ErrDuplicateID = errors.New("service: duplicate job id")
	// ErrUnknownJob reports a lookup/cancel of an id the daemon does
	// not know — never submitted, or aged out of retention (404).
	ErrUnknownJob = errors.New("service: unknown job")
)

// Config parameterizes a Service.
type Config struct {
	// Width, Height are the shared-fabric dimensions (default 8×8).
	Width, Height int
	// QueueCap bounds the admission queue (default 64). The cap is the
	// daemon's overload backstop: beyond it, arrivals shed or bounce.
	QueueCap int
	// Retain bounds how many terminal jobs stay queryable (default
	// 1024); older terminal jobs are forgotten oldest-first.
	Retain int
	// MaxJobAttempts caps how many batches one job may be admitted to
	// before it fails (default 3) — the backstop against a job whose
	// batch keeps dying for reasons not attributed to it.
	MaxJobAttempts int
	// Planner carves each batch's slots with the cost-model placement
	// planner, by handing core.RunFleet one workload profile per job
	// (core.FleetConfig.Profiles): slot shapes grow when a batch
	// undersubscribes the fabric, and each slot's slave/bank split
	// follows its job's workload profile.
	Planner bool
	// MaxCycles is the per-batch virtual-cycle watchdog (0 = core
	// fleet-test default of 4e9).
	MaxCycles uint64

	// runFleet substitutes the batch executor in tests (nil = the real
	// core.RunFleet). The scheduler's recover boundary wraps it, so a
	// panicking substitute exercises the daemon's containment path.
	runFleet func([]*guest.Image, core.Config, core.FleetConfig) (*core.FleetResult, error)
	// onBatchStart, when set, is called with the batch's job ids after
	// they turn StateRunning and before the batch executes — a
	// deterministic hook for cancel-while-running tests.
	onBatchStart func(ids []string)
}

func (c *Config) fillDefaults() {
	if c.Width == 0 {
		c.Width = 8
	}
	if c.Height == 0 {
		c.Height = 8
	}
	if c.QueueCap == 0 {
		c.QueueCap = 64
	}
	if c.Retain == 0 {
		c.Retain = 1024
	}
	if c.MaxJobAttempts == 0 {
		c.MaxJobAttempts = 3
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = 4_000_000_000
	}
}

// Service is the daemon engine: an admission queue, one scheduler
// goroutine feeding fleet batches, and a job store.
type Service struct {
	cfg   Config
	slots int

	mu   sync.Mutex
	cond *sync.Cond // signaled on queue growth and drain
	// queues is indexed by Class.rank(): 0 is the lowest priority.
	queues [numClasses][]*job
	queued int
	jobs   map[string]*job
	// retired is the FIFO of terminal job ids still retained; its
	// length is capped at cfg.Retain.
	retired []string
	nextID  uint64

	// In-flight batch state, for cancel-while-running and forced
	// drain: the handle interrupts the running simulation.
	running map[string]*job
	curIntr *core.InterruptHandle

	draining bool
	drained  chan struct{}

	imgs map[string]*guest.Image // workload name → built image
	// memo holds the translations of imgs for the daemon's lifetime:
	// jobs name workloads from a fixed catalogue, so after the first job
	// of a workload every later one finds its blocks translated
	// (core.Config.Memo). Bounded by the catalogue — about 5.2 MB if all
	// eleven profiles are ever served — so there is nothing to size.
	memo *translate.Memo

	m       svcMetrics
	started time.Time
}

// New validates the configuration, carves the fabric (to learn the
// batch width), and starts the scheduler goroutine. The caller must
// eventually call Drain to stop it. Zero sizes take their defaults; a
// negative one is an error.
func New(cfg Config) (*Service, error) {
	if min(cfg.Width, cfg.Height, cfg.QueueCap, cfg.Retain, cfg.MaxJobAttempts) < 0 {
		return nil, fmt.Errorf("service: negative size in Width %d, Height %d, QueueCap %d, Retain %d, MaxJobAttempts %d",
			cfg.Width, cfg.Height, cfg.QueueCap, cfg.Retain, cfg.MaxJobAttempts)
	}
	cfg.fillDefaults()
	base := core.DefaultConfig()
	base.Params.Width, base.Params.Height = cfg.Width, cfg.Height
	layout, err := core.FleetSlotLayout(base.Params)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	s := &Service{
		cfg:     cfg,
		slots:   len(layout),
		jobs:    map[string]*job{},
		running: map[string]*job{},
		drained: make(chan struct{}),
		imgs:    map[string]*guest.Image{},
		memo:    translate.NewMemo(),
		started: time.Now(),
	}
	s.cond = sync.NewCond(&s.mu)
	s.initMetrics()
	go s.schedule()
	return s, nil
}

// Slots reports the batch width (VM slots carved from the fabric).
func (s *Service) Slots() int { return s.slots }

// Metrics exposes the Prometheus registry (for /metrics).
func (s *Service) Metrics() *metrics.Registry { return s.m.reg }

// Submit admits a job. On a full queue a strictly lower-class queued
// job is shed to make room; with nothing sheddable the arrival is
// rejected with ErrQueueFull. The returned view snapshots the job at
// admission.
func (s *Service) Submit(sp Spec) (JobView, error) {
	if _, ok := workload.ByName(sp.Workload); !ok {
		return JobView{}, fmt.Errorf("service: unknown workload %q", sp.Workload)
	}
	if sp.Class >= numClasses {
		return JobView{}, fmt.Errorf("service: invalid class %d", sp.Class)
	}
	if sp.Timeout < 0 {
		return JobView{}, fmt.Errorf("service: negative timeout %v", sp.Timeout)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.m.rejected.Inc("draining")
		return JobView{}, ErrDraining
	}
	id := sp.ID
	if id == "" {
		for {
			s.nextID++
			id = fmt.Sprintf("job-%d", s.nextID)
			if _, taken := s.jobs[id]; !taken {
				break
			}
		}
	} else if _, dup := s.jobs[id]; dup {
		return JobView{}, fmt.Errorf("%w: %q", ErrDuplicateID, id)
	}
	if s.queued >= s.cfg.QueueCap && !s.shedForLocked(sp.Class) {
		s.m.rejected.Inc("queue_full")
		return JobView{}, fmt.Errorf("%w (cap %d)", ErrQueueFull, s.cfg.QueueCap)
	}
	j := &job{
		id:        id,
		workload:  sp.Workload,
		class:     sp.Class,
		timeout:   sp.Timeout,
		deadline:  sp.DeadlineCycles,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	if j.timeout > 0 {
		j.expiry = j.submitted.Add(j.timeout)
	}
	s.jobs[id] = j
	s.queues[j.class.rank()] = append(s.queues[j.class.rank()], j)
	s.queued++
	s.m.submitted.Inc()
	s.cond.Broadcast()
	return j.view(), nil
}

// shedForLocked makes room for an arrival of class c by evicting the
// newest queued job of the lowest class strictly below c. Reports
// whether a victim was found.
func (s *Service) shedForLocked(c Class) bool {
	for r := 0; r < c.rank(); r++ {
		q := s.queues[r]
		if len(q) == 0 {
			continue
		}
		v := q[len(q)-1]
		s.queues[r] = q[:len(q)-1]
		s.queued--
		s.m.shed.Inc(v.class.String())
		s.finishLocked(v, StateShed,
			fmt.Sprintf("shed at capacity %d by a %s-class arrival", s.cfg.QueueCap, c))
		return true
	}
	return false
}

// Get returns a job snapshot.
func (s *Service) Get(id string) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return j.view(), nil
}

// List snapshots every retained job, ordered by submission time.
func (s *Service) List() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	views := make([]JobView, 0, len(s.jobs))
	for _, j := range s.jobs {
		views = append(views, j.view())
	}
	sortViews(views)
	return views
}

// Done returns a channel closed when the job reaches a terminal
// state (already closed for terminal jobs).
func (s *Service) Done(id string) (<-chan struct{}, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return j.done, nil
}

// Cancel stops a job: a queued job turns StateCanceled immediately; a
// running job has its batch interrupted and turns StateCanceled when
// the batch unwinds. Returns false (with nil error) if the job was
// already terminal.
func (s *Service) Cancel(id string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return false, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	switch {
	case j.state == StateQueued:
		s.removeQueuedLocked(j)
		s.finishLocked(j, StateCanceled, "canceled before admission")
		return true, nil
	case j.state == StateRunning:
		j.cancelReq = true
		s.curIntr.Interrupt() // nil-safe
		return true, nil
	}
	return false, nil
}

// removeQueuedLocked unlinks a StateQueued job from its class queue.
func (s *Service) removeQueuedLocked(j *job) {
	r := j.class.rank()
	q := s.queues[r]
	for i, cand := range q {
		if cand == j {
			s.queues[r] = append(q[:i:i], q[i+1:]...)
			s.queued--
			return
		}
	}
}

// Drain stops admission and waits until every already-admitted job is
// terminal and the scheduler has exited. If ctx expires first, queued
// jobs are canceled, the in-flight batch is interrupted, and Drain
// returns ctx.Err once the scheduler unwinds.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
	}
	// Forced drain: abandon the queue, interrupt the batch.
	s.mu.Lock()
	for r := range s.queues {
		for _, j := range s.queues[r] {
			s.finishLocked(j, StateCanceled, "canceled by drain deadline")
		}
		s.queues[r] = nil
	}
	s.queued = 0
	for _, j := range s.running {
		j.cancelReq = true
	}
	s.curIntr.Interrupt() // nil-safe
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.drained
	return ctx.Err()
}

// Draining reports whether the service has stopped admitting
// (readiness probe).
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// finishLocked moves a job to a terminal state exactly once and
// updates the terminal metrics and the retention window.
func (s *Service) finishLocked(j *job, st State, msg string) {
	if j.state.Terminal() {
		return
	}
	j.state = st
	j.errMsg = msg
	j.finished = time.Now()
	delete(s.running, j.id)
	close(j.done)
	s.m.terminal.Inc(st.String())
	s.m.latency.Observe(j.finished.Sub(j.submitted).Seconds())
	if j.result != nil {
		s.m.hostInsts.Add(j.result.HostInsts)
	}
	if j.timeout > 0 || j.deadline > 0 {
		s.m.sloTotal.Inc()
		if st == StateFinished {
			s.m.sloMet.Inc()
		}
	}
	s.retired = append(s.retired, j.id)
	for len(s.retired) > s.cfg.Retain {
		delete(s.jobs, s.retired[0])
		s.retired = s.retired[1:]
	}
}

// schedule is the scheduler goroutine: pop a batch, run it, repeat,
// until drained.
func (s *Service) schedule() {
	for {
		s.mu.Lock()
		for s.queued == 0 && !s.draining {
			s.cond.Wait()
		}
		if s.queued == 0 && s.draining {
			close(s.drained)
			s.mu.Unlock()
			return
		}
		batch := s.popBatchLocked()
		if len(batch) == 0 {
			// Every queued job expired while waiting; loop for more.
			s.mu.Unlock()
			continue
		}
		ids := make([]string, len(batch))
		now := time.Now()
		for i, j := range batch {
			j.state = StateRunning
			j.attempts++
			if j.started.IsZero() {
				j.started = now
			}
			s.running[j.id] = j
			ids[i] = j.id
		}
		intr := core.NewInterruptHandle()
		s.curIntr = intr
		s.mu.Unlock()

		if s.cfg.onBatchStart != nil {
			s.cfg.onBatchStart(ids)
		}
		res, err := s.runBatch(batch, intr)

		s.mu.Lock()
		s.curIntr = nil
		s.settleBatchLocked(batch, res, err)
		s.mu.Unlock()
	}
}

// popBatchLocked removes up to one batch of runnable jobs from the
// queues, highest class first, FIFO within a class. Jobs whose
// wall-clock budget expired while queued turn StateTimedOut here,
// without costing a slot.
func (s *Service) popBatchLocked() []*job {
	now := time.Now()
	var batch []*job
	for r := int(numClasses) - 1; r >= 0; r-- {
		q := s.queues[r]
		kept := q[:0]
		for _, j := range q {
			switch {
			case !j.expiry.IsZero() && now.After(j.expiry):
				s.queued--
				s.finishLocked(j, StateTimedOut,
					fmt.Sprintf("wall-clock timeout %v expired while queued", j.timeout))
			case len(batch) < s.slots:
				s.queued--
				batch = append(batch, j)
			default:
				kept = append(kept, j)
			}
		}
		// Zero the moved-from tail so retired jobs don't linger in the
		// backing array.
		for i := len(kept); i < len(q); i++ {
			q[i] = nil
		}
		s.queues[r] = kept
	}
	return batch
}

// runBatch executes one fleet batch outside the service lock. The
// recover boundary is the daemon's last line: a panic anywhere in the
// batch path — engine, fleet scheduler, a substitute executor —
// becomes an error settled like any other batch failure, never a
// daemon crash. (Tile-kernel panics are already contained a layer
// down, inside the simulator.)
func (s *Service) runBatch(batch []*job, intr *core.InterruptHandle) (res *core.FleetResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("service: batch panicked: %v", r)
		}
	}()

	imgs := make([]*guest.Image, len(batch))
	var deadlines []uint64
	for i, j := range batch {
		img, ok := s.imgs[j.workload]
		if !ok {
			p, found := workload.ByName(j.workload)
			if !found {
				return nil, fmt.Errorf("service: unknown workload %q", j.workload)
			}
			img = p.Build()
			s.imgs[j.workload] = img
		}
		imgs[i] = img
		if j.deadline > 0 {
			if deadlines == nil {
				deadlines = make([]uint64, len(batch))
			}
			deadlines[i] = j.deadline
		}
	}

	cfg := core.DefaultConfig()
	cfg.Params.Width, cfg.Params.Height = s.cfg.Width, s.cfg.Height
	cfg.MaxCycles = s.cfg.MaxCycles
	cfg.Interrupt = intr
	cfg.Memo = s.memo
	fc := core.FleetConfig{Deadlines: deadlines}
	if s.cfg.Planner {
		fc.Profiles = make([]core.GuestProfile, len(batch))
		for i, j := range batch {
			if p, ok := workload.ByName(j.workload); ok {
				fc.Profiles[i] = core.ProfileFromWorkload(p)
			}
		}
	}

	// One wall-clock timer per batch, armed for the earliest expiry.
	// When it fires, the whole batch is interrupted; settle then times
	// out the expired jobs and requeues the rest.
	var earliest time.Time
	for _, j := range batch {
		if !j.expiry.IsZero() && (earliest.IsZero() || j.expiry.Before(earliest)) {
			earliest = j.expiry
		}
	}
	if !earliest.IsZero() {
		t := time.AfterFunc(time.Until(earliest), intr.Interrupt)
		defer t.Stop()
	}

	run := s.cfg.runFleet
	if run == nil {
		run = core.RunFleet
	}
	s.m.batches.Inc()
	return run(imgs, cfg, fc)
}

// settleBatchLocked converts a finished batch into terminal job
// states and requeues the interrupted survivors.
func (s *Service) settleBatchLocked(batch []*job, res *core.FleetResult, err error) {
	now := time.Now()
	var ie *core.InternalError
	if errors.As(err, &ie) {
		s.m.internal.Inc()
	}
	for i, j := range batch {
		var g *core.GuestResult
		if res != nil && i < len(res.Guests) {
			g = res.Guests[i]
		}
		status := core.GuestPending
		if g != nil {
			status = g.Status
			if g.Result != nil {
				j.result = &JobResult{
					Cycles:    g.Result.Cycles,
					ExitCode:  g.Result.ExitCode,
					Stdout:    g.Result.Stdout,
					HostInsts: g.Result.M.HostInsts,
				}
			}
		}
		switch {
		case j.cancelReq:
			s.finishLocked(j, StateCanceled, "canceled while running")
		case !j.expiry.IsZero() && now.After(j.expiry):
			s.finishLocked(j, StateTimedOut,
				fmt.Sprintf("wall-clock timeout %v expired", j.timeout))
		case status == core.GuestFinished:
			s.finishLocked(j, StateFinished, "")
		case status == core.GuestDeadlineExceeded:
			s.finishLocked(j, StateDeadline, errString(g.Err))
		case status == core.GuestAborted:
			s.finishLocked(j, StateFailed, "fleet gave up: "+errString(g.Err))
		case status == core.GuestInternalError:
			s.finishLocked(j, StateFailed, "internal error: "+errString(g.Err))
		case ie != nil && ie.Guest == i:
			// Attributed panic whose result snapshot was lost.
			s.finishLocked(j, StateFailed, "internal error: "+ie.Error())
		case j.attempts >= s.cfg.MaxJobAttempts:
			cause := "batch ended before the guest finished"
			if err != nil && !core.Interrupted(err) {
				cause = errString(err)
			}
			s.finishLocked(j, StateFailed,
				fmt.Sprintf("gave up after %d attempts: %s", j.attempts, cause))
		default:
			// Collateral of an interrupt, panic, or watchdog aimed at
			// another job: requeue at the front of its class.
			j.state = StateQueued
			j.result = nil
			delete(s.running, j.id)
			r := j.class.rank()
			s.queues[r] = append([]*job{j}, s.queues[r]...)
			s.queued++
		}
	}
}

func errString(err error) string {
	if err == nil {
		return "no error recorded"
	}
	return err.Error()
}

// sortViews orders snapshots by submission time, then id.
func sortViews(views []JobView) {
	for i := 1; i < len(views); i++ {
		for k := i; k > 0 && viewLess(views[k], views[k-1]); k-- {
			views[k], views[k-1] = views[k-1], views[k]
		}
	}
}

func viewLess(a, b JobView) bool {
	if !a.SubmittedAt.Equal(b.SubmittedAt) {
		return a.SubmittedAt.Before(b.SubmittedAt)
	}
	return a.ID < b.ID
}

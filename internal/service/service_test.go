package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"tilevm/internal/core"
	"tilevm/internal/guest"
)

// The battery below is deterministic by construction: tests block on
// per-job Done channels and explicit stub-release channels, never on
// real-time sleeps. The stub executor stands in for core.RunFleet
// where the scenario is about queue mechanics; scenarios about the
// engine boundary (cancel mid-simulation, panic containment inside
// the simulator) run the real engine on a small fabric.

// stubFleet is a controllable batch executor. quit unblocks a held
// batch at test teardown so cleanup's forced drain can finish.
type stubFleet struct {
	release chan struct{} // one receive per batch before returning
	quit    chan struct{}
	panics  bool
}

// stubStdout is what every stubbed guest prints.
const stubStdout = "stub guest\nsays hi\n"

func newStub() *stubFleet {
	return &stubFleet{release: make(chan struct{}, 8), quit: make(chan struct{})}
}

func (f *stubFleet) run(imgs []*guest.Image, _ core.Config, _ core.FleetConfig) (*core.FleetResult, error) {
	if f.release != nil {
		select {
		case <-f.release:
		case <-f.quit:
		}
	}
	if f.panics {
		panic("stub executor exploded")
	}
	res := &core.FleetResult{Guests: make([]*core.GuestResult, len(imgs)), Slots: len(imgs)}
	for i := range res.Guests {
		res.Guests[i] = &core.GuestResult{
			Status: core.GuestFinished,
			Result: &core.Result{Cycles: 100, ExitCode: 7, Stdout: stubStdout},
		}
	}
	return res, nil
}

// newTestService builds a one-slot service (4×2 fabric) so admission
// order is fully observable. A non-nil stub is released at teardown
// before the forced drain, so a batch held by the stub can't wedge
// cleanup.
func newTestService(t *testing.T, cfg Config, f *stubFleet) *Service {
	t.Helper()
	if cfg.Width == 0 {
		cfg.Width, cfg.Height = 4, 2
	}
	if f != nil {
		cfg.runFleet = f.run
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if f != nil && f.quit != nil {
			close(f.quit)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // forced drain: tests that care drained cleanly already
		s.Drain(ctx)
	})
	return s
}

func await(t *testing.T, s *Service, id string) JobView {
	t.Helper()
	done, err := s.Done(id)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s never reached a terminal state", id)
	}
	v, err := s.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func mustSubmit(t *testing.T, s *Service, sp Spec) JobView {
	t.Helper()
	v, err := s.Submit(sp)
	if err != nil {
		t.Fatalf("submit %+v: %v", sp, err)
	}
	return v
}

func TestServiceRunsJobsEndToEnd(t *testing.T) {
	s := newTestService(t, Config{Width: 4, Height: 4}, nil) // 2 slots
	ids := []string{}
	for i := 0; i < 3; i++ {
		v := mustSubmit(t, s, Spec{Workload: "164.gzip"})
		ids = append(ids, v.ID)
	}
	for _, id := range ids {
		v := await(t, s, id)
		if v.State != StateFinished.String() {
			t.Fatalf("job %s state %s (%s), want finished", id, v.State, v.Error)
		}
		if v.Result == nil || v.Result.Cycles == 0 {
			t.Errorf("job %s finished with no result", id)
		}
		if v.Attempts != 1 {
			t.Errorf("job %s took %d attempts, want 1", id, v.Attempts)
		}
	}
	if got := s.List(); len(got) != 3 {
		t.Errorf("List returned %d jobs, want 3", len(got))
	}
	// Three jobs of one workload: the daemon translated gzip once.
	st := s.memo.Stats()
	if st.Misses == 0 || st.Hits < st.Misses || st.Bypassed != 0 {
		t.Errorf("memo stats %+v: want every block missed once, then hit", st)
	}
	text := s.Metrics().Text()
	for _, want := range []string{
		"tilevmd_jobs_submitted_total 3",
		`tilevmd_jobs_terminal_total{state="finished"} 3`,
		"tilevmd_queue_depth 0",
		"# TYPE tilevmd_translation_memo_hits_total counter",
		fmt.Sprintf("tilevmd_translation_memo_hits_total %d", st.Hits),
		fmt.Sprintf("tilevmd_translation_memo_misses_total %d", st.Misses),
		"tilevmd_translation_memo_bypassed_total 0",
		fmt.Sprintf("tilevmd_translation_memo_entries %d", st.Entries),
		fmt.Sprintf("tilevmd_translation_memo_bytes %d", st.Bytes),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestJobResultCarriesGuestOutput: a finished job reports what its
// guest printed and the code it exited with.
func TestJobResultCarriesGuestOutput(t *testing.T) {
	f := newStub()
	s := newTestService(t, Config{}, f)
	v := mustSubmit(t, s, Spec{Workload: "164.gzip"})
	f.release <- struct{}{}
	got := await(t, s, v.ID)
	if got.Result == nil || got.Result.Stdout != stubStdout || got.Result.ExitCode != 7 {
		t.Errorf("result = %+v, want exit code 7 and stdout %q", got.Result, stubStdout)
	}
}

// TestMemoSteadyState drives the daemon the way tilebench's svc_closed
// does — a closed loop keeping twice the slot count outstanding, jobs
// drawn evenly from six profiles — and checks that the translation memo
// reaches a steady state with the warm-up round: once every profile has
// been served, later jobs translate (next to) nothing. A slot's place
// on the fabric shifts a guest's speculation slightly, so a late job
// may still reach a block no earlier one did; nothing is bypassed.
func TestMemoSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("48 real jobs")
	}
	profiles := []string{"164.gzip", "181.mcf", "197.parser", "256.bzip2", "175.vpr", "254.gap"}
	const outstanding, round = 16, 24
	s := newTestService(t, Config{}, nil)
	closedLoop := func() {
		var inflight []string
		next := 0
		for next < round || len(inflight) > 0 {
			for next < round && len(inflight) < outstanding {
				v := mustSubmit(t, s, Spec{Workload: profiles[next%len(profiles)], Class: Class(next % int(numClasses))})
				inflight = append(inflight, v.ID)
				next++
			}
			v := await(t, s, inflight[0])
			inflight = inflight[1:]
			if v.State != StateFinished.String() {
				t.Fatalf("job %s (%s): %s %s", v.ID, v.Workload, v.State, v.Error)
			}
		}
	}
	closedLoop()
	warm := s.memo.Stats()
	closedLoop()
	st := s.memo.Stats()
	hits, misses := st.Hits-warm.Hits, st.Misses-warm.Misses
	t.Logf("warm-up %+v; timed round: %d hits, %d misses", warm, hits, misses)
	if st.Bypassed != 0 {
		t.Errorf("%d translations bypassed the memo; no catalogue guest writes its code pages", st.Bypassed)
	}
	if share := float64(hits) / float64(hits+misses); share < 0.99 {
		t.Errorf("hit share %.4f over the timed round (%d hits, %d misses), want >= 0.99", share, hits, misses)
	}
}

func TestDuplicateJobID(t *testing.T) {
	f := newStub()
	s := newTestService(t, Config{}, f)
	mustSubmit(t, s, Spec{ID: "twin", Workload: "164.gzip"})
	if _, err := s.Submit(Spec{ID: "twin", Workload: "164.gzip"}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate submit err = %v, want ErrDuplicateID", err)
	}
	f.release <- struct{}{}
	if v := await(t, s, "twin"); v.State != StateFinished.String() {
		t.Errorf("original job state %s, want finished", v.State)
	}
	// A terminal job's id stays taken while retained.
	if _, err := s.Submit(Spec{ID: "twin", Workload: "164.gzip"}); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("resubmit of retained id err = %v, want ErrDuplicateID", err)
	}
}

func TestCancelBeforeAdmit(t *testing.T) {
	started := make(chan []string, 8)
	f := newStub()
	s := newTestService(t, Config{
		onBatchStart: func(ids []string) { started <- ids }}, f)

	blocker := mustSubmit(t, s, Spec{Workload: "164.gzip"})
	<-started // blocker occupies the only slot; the stub holds it there
	victim := mustSubmit(t, s, Spec{ID: "victim", Workload: "164.gzip"})

	if ok, err := s.Cancel(victim.ID); err != nil || !ok {
		t.Fatalf("cancel queued job = %v, %v", ok, err)
	}
	v := await(t, s, victim.ID)
	if v.State != StateCanceled.String() || v.Attempts != 0 {
		t.Fatalf("victim state %s after %d attempts, want canceled after 0", v.State, v.Attempts)
	}
	// Canceling a terminal job is a no-op, not an error.
	if ok, err := s.Cancel(victim.ID); err != nil || ok {
		t.Errorf("re-cancel = %v, %v; want false, nil", ok, err)
	}

	f.release <- struct{}{}
	await(t, s, blocker.ID)
	f.release <- struct{}{} // in case anything else was batched (must not be)
	select {
	case ids := <-started:
		t.Fatalf("canceled job still reached a batch: %v", ids)
	default:
	}
}

func TestCancelWhileRunning(t *testing.T) {
	// Real engine: the cancel lands while (or just before) the
	// simulation runs, and must unwind it via the interrupt path.
	var s *Service
	s = newTestService(t, Config{onBatchStart: func(ids []string) {
		for _, id := range ids {
			if id == "victim" {
				if ok, err := s.Cancel(id); err != nil || !ok {
					t.Errorf("cancel running job = %v, %v", ok, err)
				}
			}
		}
	}}, nil)
	mustSubmit(t, s, Spec{ID: "victim", Workload: "164.gzip"})
	v := await(t, s, "victim")
	if v.State != StateCanceled.String() {
		t.Fatalf("state %s (%s), want canceled", v.State, v.Error)
	}
	if !strings.Contains(v.Error, "canceled while running") {
		t.Errorf("error %q does not attribute the running cancel", v.Error)
	}
}

// undisturbed runs one job alone on a fresh two-slot service: what a
// job requeued out of an interrupted batch must end up reporting.
func undisturbed(t *testing.T, workload string) JobResult {
	t.Helper()
	s := newTestService(t, Config{Width: 4, Height: 4}, nil)
	v := await(t, s, mustSubmit(t, s, Spec{Workload: workload}).ID)
	if v.State != StateFinished.String() || v.Result == nil {
		t.Fatalf("undisturbed %s: state %s (%s)", workload, v.State, v.Error)
	}
	return *v.Result
}

func TestCancelCollateralRequeues(t *testing.T) {
	// Two jobs share a batch on a two-slot fabric — two independent
	// slots, so the batch is dispatched a slot at a time; canceling one
	// interrupts the whole simulation between two dispatches, and the
	// innocent survivor must be requeued and finish on its second
	// attempt with the result it would have had undisturbed.
	//
	// The scheduler pops whatever is queued the moment it looks, so the
	// two jobs are queued while it is held inside the batch start of a
	// job of its own ("gate"): its next pop is the pair, never the victim
	// alone.
	var s *Service
	canceled := false
	gated, release := make(chan struct{}), make(chan struct{})
	s = newTestService(t, Config{Width: 4, Height: 4, onBatchStart: func(ids []string) {
		switch {
		case len(ids) == 1 && ids[0] == "gate":
			close(gated)
			<-release
		case !canceled && len(ids) == 2:
			canceled = true
			s.Cancel("victim")
		}
	}}, nil)
	mustSubmit(t, s, Spec{ID: "gate", Workload: "164.gzip"})
	<-gated
	mustSubmit(t, s, Spec{ID: "victim", Workload: "164.gzip"})
	mustSubmit(t, s, Spec{ID: "survivor", Workload: "181.mcf"})
	close(release)
	if v := await(t, s, "victim"); v.State != StateCanceled.String() {
		t.Fatalf("victim state %s, want canceled", v.State)
	}
	v := await(t, s, "survivor")
	if v.State != StateFinished.String() {
		t.Fatalf("survivor state %s (%s), want finished", v.State, v.Error)
	}
	if v.Attempts < 2 {
		t.Errorf("survivor finished in %d attempts, want ≥2 (requeued)", v.Attempts)
	}
	if want := undisturbed(t, "181.mcf"); v.Result == nil || *v.Result != want {
		t.Errorf("survivor result %+v, undisturbed %+v", v.Result, want)
	}
}

func TestShedAtCapacity(t *testing.T) {
	started := make(chan []string, 8)
	f := newStub()
	s := newTestService(t, Config{QueueCap: 2,
		onBatchStart: func(ids []string) { started <- ids }}, f)

	blocker := mustSubmit(t, s, Spec{Workload: "164.gzip"})
	<-started
	mustSubmit(t, s, Spec{ID: "low-old", Workload: "164.gzip", Class: ClassLow})
	mustSubmit(t, s, Spec{ID: "low-new", Workload: "164.gzip", Class: ClassLow})

	// Queue full: a high-class arrival sheds the newest low-class job.
	mustSubmit(t, s, Spec{ID: "high", Workload: "164.gzip", Class: ClassHigh})
	if v := await(t, s, "low-new"); v.State != StateShed.String() {
		t.Fatalf("low-new state %s, want shed", v.State)
	}
	// Full again: a normal arrival sheds the remaining low-class job.
	mustSubmit(t, s, Spec{ID: "normal", Workload: "164.gzip"})
	if v := await(t, s, "low-old"); v.State != StateShed.String() {
		t.Fatalf("low-old state %s, want shed", v.State)
	}
	// Full with nothing lower-class left: normal bounces off normal…
	if _, err := s.Submit(Spec{Workload: "164.gzip"}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit at capacity err = %v, want ErrQueueFull", err)
	}
	// …and low bounces too (shedding never preempts an equal class).
	if _, err := s.Submit(Spec{Workload: "164.gzip", Class: ClassLow}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("low submit at capacity err = %v, want ErrQueueFull", err)
	}

	// Drain the backlog: high runs before normal despite arriving later.
	for i := 0; i < 3; i++ {
		f.release <- struct{}{}
	}
	await(t, s, blocker.ID)
	if v := await(t, s, "high"); v.State != StateFinished.String() {
		t.Fatalf("high state %s, want finished", v.State)
	}
	await(t, s, "normal")
	order := [][]string{<-started, <-started}
	if order[0][0] != "high" || order[1][0] != "normal" {
		t.Errorf("batch order %v, want high before normal", order)
	}

	text := s.Metrics().Text()
	for _, want := range []string{
		`tilevmd_jobs_shed_total{class="low"} 2`,
		`tilevmd_jobs_rejected_total{reason="queue_full"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

func TestDrainWithQueuedJobs(t *testing.T) {
	started := make(chan []string, 8)
	f := newStub()
	s := newTestService(t, Config{
		onBatchStart: func(ids []string) { started <- ids }}, f)

	first := mustSubmit(t, s, Spec{Workload: "164.gzip"})
	<-started
	second := mustSubmit(t, s, Spec{Workload: "164.gzip"})
	third := mustSubmit(t, s, Spec{Workload: "164.gzip"})

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	for !s.Draining() {
		runtime.Gosched()
	}
	// Admission is closed immediately…
	if _, err := s.Submit(Spec{Workload: "164.gzip"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining err = %v, want ErrDraining", err)
	}
	// …but already-admitted jobs still run to completion.
	for i := 0; i < 3; i++ {
		f.release <- struct{}{}
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain returned %v", err)
	}
	for _, id := range []string{first.ID, second.ID, third.ID} {
		if v := await(t, s, id); v.State != StateFinished.String() {
			t.Errorf("job %s state %s after drain, want finished", id, v.State)
		}
	}
	// The scheduler has exited; a second drain returns immediately.
	if err := s.Drain(context.Background()); err != nil {
		t.Errorf("second drain returned %v", err)
	}
}

func TestBatchPanicBecomesJobFailure(t *testing.T) {
	// A panicking batch executor must never unwind the daemon: the
	// recover boundary converts it into attempts, then a structured
	// failure.
	f := &stubFleet{panics: true}
	s := newTestService(t, Config{MaxJobAttempts: 2}, f)
	v := mustSubmit(t, s, Spec{Workload: "164.gzip"})
	got := await(t, s, v.ID)
	if got.State != StateFailed.String() {
		t.Fatalf("state %s, want failed", got.State)
	}
	if got.Attempts != 2 {
		t.Errorf("gave up after %d attempts, want 2", got.Attempts)
	}
	if !strings.Contains(got.Error, "stub executor exploded") {
		t.Errorf("error %q does not carry the panic value", got.Error)
	}
	// The scheduler survived: the next job still runs.
	f.panics, f.release = false, nil
	next := mustSubmit(t, s, Spec{Workload: "164.gzip"})
	if v := await(t, s, next.ID); v.State != StateFinished.String() {
		t.Errorf("post-panic job state %s, want finished", v.State)
	}
}

func TestSimPanicAttributedToVictim(t *testing.T) {
	// Full-stack containment: the panic fires inside a tile kernel of
	// the real simulator (Config.PanicAtDispatch); the victim fails
	// with the internal error, and the daemon keeps serving.
	s := newTestService(t, Config{Width: 4, Height: 4,
		runFleet: func(imgs []*guest.Image, cfg core.Config, fc core.FleetConfig) (*core.FleetResult, error) {
			cfg.PanicAtDispatch = 50
			return core.RunFleet(imgs, cfg, fc)
		}}, nil)
	a := mustSubmit(t, s, Spec{ID: "a", Workload: "164.gzip"})
	b := mustSubmit(t, s, Spec{ID: "b", Workload: "181.mcf"})
	va, vb := await(t, s, a.ID), await(t, s, b.ID)
	failed := 0
	for _, v := range []JobView{va, vb} {
		if v.State != StateFailed.String() {
			t.Fatalf("job %s state %s (%s), want failed", v.ID, v.State, v.Error)
		}
		if strings.Contains(v.Error, "internal error") {
			failed++
		}
	}
	if failed != 2 {
		t.Errorf("%d/2 failures carry internal-error attribution", failed)
	}
	if got := s.Metrics(); !strings.Contains(got.Text(), "tilevmd_batch_internal_errors_total") {
		t.Error("internal-error counter missing from metrics")
	}
}

func TestWallTimeoutWhileQueued(t *testing.T) {
	f := newStub()
	started := make(chan []string, 8)
	s := newTestService(t, Config{
		onBatchStart: func(ids []string) { started <- ids }}, f)
	blocker := mustSubmit(t, s, Spec{Workload: "164.gzip"})
	<-started
	// The job's budget is already spent when it is submitted, so it
	// must time out at pop time without ever costing a batch slot.
	v := mustSubmit(t, s, Spec{ID: "late", Workload: "164.gzip", Timeout: time.Nanosecond})
	f.release <- struct{}{}
	got := await(t, s, v.ID)
	if got.State != StateTimedOut.String() || got.Attempts != 0 {
		t.Fatalf("state %s after %d attempts, want timed-out after 0 (%s)",
			got.State, got.Attempts, got.Error)
	}
	f.release <- struct{}{}
	await(t, s, blocker.ID)
	text := s.Metrics().Text()
	if !strings.Contains(text, `tilevmd_jobs_terminal_total{state="timed-out"} 1`) {
		t.Errorf("timeout not counted:\n%s", text)
	}
	if !strings.Contains(text, "tilevmd_slo_eligible_total 1") {
		t.Errorf("timed-out job not SLO-eligible:\n%s", text)
	}
}

func TestWallTimeoutWhileRunning(t *testing.T) {
	// Real engine: the job's budget expires after admission, so the
	// batch timer interrupts the simulation and settle reports the
	// timeout. The expiry is rewritten to the past at batch start —
	// deterministic, no sleeps.
	var s *Service
	s = newTestService(t, Config{onBatchStart: func(ids []string) {
		s.mu.Lock()
		for _, id := range ids {
			s.jobs[id].expiry = time.Now().Add(-time.Second)
		}
		s.mu.Unlock()
	}}, nil)
	v := mustSubmit(t, s, Spec{Workload: "164.gzip", Timeout: time.Hour})
	got := await(t, s, v.ID)
	if got.State != StateTimedOut.String() {
		t.Fatalf("state %s (%s), want timed-out", got.State, got.Error)
	}
	if got.Attempts != 1 {
		t.Errorf("attempts = %d, want 1 (admitted once)", got.Attempts)
	}
}

func TestWallTimeoutCollateralRequeues(t *testing.T) {
	// The same expiry in a batch of two independent slots: the batch
	// timer interrupts both, the expired job alone times out, and the
	// job that shared its batch — in the slot dispatched first, so the
	// one the interrupt found running or already at its exit — is
	// requeued, not reported from the interrupted run, and finishes with
	// the result an undisturbed run gives.
	var s *Service
	expired := false
	s = newTestService(t, Config{Width: 4, Height: 4, onBatchStart: func(ids []string) {
		if !expired && len(ids) == 2 {
			expired = true
			s.mu.Lock()
			s.jobs["late"].expiry = time.Now().Add(-time.Second)
			s.mu.Unlock()
		}
	}}, nil)
	mustSubmit(t, s, Spec{ID: "bystander", Workload: "164.gzip"})
	mustSubmit(t, s, Spec{ID: "late", Workload: "181.mcf", Timeout: time.Hour})
	if v := await(t, s, "late"); v.State != StateTimedOut.String() || v.Attempts != 1 {
		t.Fatalf("late: state %s after %d attempts (%s), want timed-out after 1", v.State, v.Attempts, v.Error)
	}
	v := await(t, s, "bystander")
	if v.State != StateFinished.String() || v.Attempts != 2 {
		t.Fatalf("bystander: state %s after %d attempts (%s), want finished after 2", v.State, v.Attempts, v.Error)
	}
	if want := undisturbed(t, "164.gzip"); v.Result == nil || *v.Result != want {
		t.Errorf("bystander result %+v, undisturbed %+v", v.Result, want)
	}
}

func TestVirtualDeadlinePropagates(t *testing.T) {
	// A 1-cycle virtual deadline trips core's DeadlineError path.
	s := newTestService(t, Config{}, nil)
	v := mustSubmit(t, s, Spec{Workload: "164.gzip", DeadlineCycles: 1})
	got := await(t, s, v.ID)
	if got.State != StateDeadline.String() {
		t.Fatalf("state %s (%s), want deadline-exceeded", got.State, got.Error)
	}
	if !strings.Contains(got.Error, "deadline") {
		t.Errorf("error %q does not mention the deadline", got.Error)
	}
}

func TestRetentionCapBoundsMemory(t *testing.T) {
	s := newTestService(t, Config{Retain: 2}, &stubFleet{})
	ids := []string{}
	for i := 0; i < 4; i++ {
		v := mustSubmit(t, s, Spec{Workload: "164.gzip"})
		await(t, s, v.ID)
		ids = append(ids, v.ID)
	}
	// Only the two newest terminal jobs are still queryable.
	for _, id := range ids[:2] {
		if _, err := s.Get(id); !errors.Is(err, ErrUnknownJob) {
			t.Errorf("job %s still retained, want aged out", id)
		}
	}
	for _, id := range ids[2:] {
		if _, err := s.Get(id); err != nil {
			t.Errorf("job %s aged out early: %v", id, err)
		}
	}
	if n := len(s.List()); n != 2 {
		t.Errorf("List holds %d jobs, want 2", n)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newTestService(t, Config{}, &stubFleet{})
	if _, err := s.Submit(Spec{Workload: "no-such-workload"}); err == nil ||
		!strings.Contains(err.Error(), "unknown workload") {
		t.Errorf("unknown workload err = %v", err)
	}
	if _, err := s.Submit(Spec{Workload: "164.gzip", Timeout: -time.Second}); err == nil ||
		!strings.Contains(err.Error(), "negative timeout") {
		t.Errorf("negative timeout err = %v", err)
	}
	if _, err := s.Submit(Spec{Workload: "164.gzip", Class: Class(9)}); err == nil ||
		!strings.Contains(err.Error(), "invalid class") {
		t.Errorf("bad class err = %v", err)
	}
	if _, err := s.Get("ghost"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("get ghost err = %v", err)
	}
	if _, err := s.Cancel("ghost"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("cancel ghost err = %v", err)
	}
}

// TestNewRejectsNegativeSizes: a negative size is an error from New,
// not a service that later fails — a negative Retain used to panic in
// the first terminal job's retirement, a negative QueueCap rejected
// every job and a negative MaxJobAttempts failed every job after its
// first batch.
func TestNewRejectsNegativeSizes(t *testing.T) {
	for _, tc := range []struct {
		field string
		cfg   Config
	}{
		{"Width", Config{Width: -1}},
		{"Height", Config{Height: -1}},
		{"QueueCap", Config{QueueCap: -1}},
		{"Retain", Config{Retain: -1}},
		{"MaxJobAttempts", Config{MaxJobAttempts: -1}},
	} {
		s, err := New(tc.cfg)
		if err == nil {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			s.Drain(ctx)
			t.Errorf("New with negative %s succeeded", tc.field)
		} else if !strings.Contains(err.Error(), tc.field+" -1") {
			t.Errorf("New with negative %s: %v", tc.field, err)
		}
	}
}

// TestServicePlannerProfiles pins the planner plumbing: the profiles
// are what turn the placement planner on in core.RunFleet, so with
// Planner on the executor sees one workload profile per admitted guest
// and with it off none; and a backed-up queue never pushes a batch past
// the carved slot count (4×2 fabric → 1 slot).
func TestServicePlannerProfiles(t *testing.T) {
	for _, planner := range []bool{false, true} {
		f := &stubFleet{}
		profiles := make(chan int, 8)
		s := newTestService(t, Config{
			Planner: planner,
			runFleet: func(imgs []*guest.Image, cfg core.Config, fc core.FleetConfig) (*core.FleetResult, error) {
				if len(imgs) != 1 {
					t.Errorf("planner=%v: batch of %d guests on a 1-slot fabric", planner, len(imgs))
				}
				profiles <- len(fc.Profiles)
				return f.run(imgs, cfg, fc)
			}}, nil)
		var ids []string
		for i := 0; i < 3; i++ {
			ids = append(ids, mustSubmit(t, s, Spec{Workload: "164.gzip"}).ID)
		}
		for _, id := range ids {
			if v := await(t, s, id); v.State != StateFinished.String() {
				t.Fatalf("planner=%v: job %s state %s, want finished", planner, id, v.State)
			}
		}
		want := 0
		if planner {
			want = 1
		}
		for i := range ids {
			if n := <-profiles; n != want {
				t.Errorf("planner=%v: batch %d carried %d profiles, want %d", planner, i, n, want)
			}
		}
	}
}

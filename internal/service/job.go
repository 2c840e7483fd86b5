package service

import (
	"fmt"
	"time"
)

// Class is a job's admission-priority class. Higher-priority classes
// are batched first and, when the queue is full, a higher-class
// arrival may shed a queued lower-class job rather than be rejected.
// The zero value is ClassNormal, so a zero Spec gets the default
// class; priority ordering lives in rank, not in the constant values.
type Class uint8

const (
	// ClassNormal: the default class.
	ClassNormal Class = iota
	// ClassLow: best-effort work, first to be shed under overload.
	ClassLow
	// ClassHigh: latency-sensitive work; never shed by arrivals.
	ClassHigh
	numClasses
)

// rank orders classes by priority: 0 lowest. Queues are indexed by
// rank so scans run lowest-to-highest priority.
func (c Class) rank() int {
	switch c {
	case ClassLow:
		return 0
	case ClassNormal:
		return 1
	case ClassHigh:
		return 2
	}
	return -1
}

func (c Class) String() string {
	switch c {
	case ClassLow:
		return "low"
	case ClassNormal:
		return "normal"
	case ClassHigh:
		return "high"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// ParseClass maps the wire form ("low", "normal", "high"; "" defaults
// to normal) onto a Class.
func ParseClass(s string) (Class, error) {
	switch s {
	case "", "normal":
		return ClassNormal, nil
	case "low":
		return ClassLow, nil
	case "high":
		return ClassHigh, nil
	}
	return ClassNormal, fmt.Errorf("service: unknown class %q (want low, normal, or high)", s)
}

// State is a job's lifecycle state. Every state at StateFinished or
// beyond is terminal.
type State uint8

const (
	// StateQueued: admitted, waiting for a batch slot.
	StateQueued State = iota
	// StateRunning: part of the in-flight fleet batch.
	StateRunning
	// StateFinished: the guest ran to a clean exit.
	StateFinished
	// StateFailed: the guest or the simulator failed (abort, internal
	// error, attempts exhausted); Error carries the cause.
	StateFailed
	// StateCanceled: canceled by the client (or a forced drain).
	StateCanceled
	// StateTimedOut: the wall-clock timeout expired before a result.
	StateTimedOut
	// StateDeadline: the virtual-cycle deadline was exceeded.
	StateDeadline
	// StateShed: evicted from a full queue by a higher-class arrival.
	StateShed
)

func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateFinished:
		return "finished"
	case StateFailed:
		return "failed"
	case StateCanceled:
		return "canceled"
	case StateTimedOut:
		return "timed-out"
	case StateDeadline:
		return "deadline-exceeded"
	case StateShed:
		return "shed"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s >= StateFinished }

// Spec is a job submission.
type Spec struct {
	// ID is the client-chosen job id; empty lets the service assign
	// one. IDs are unique across the daemon's lifetime (including
	// already-retired jobs still in the retention window).
	ID string
	// Workload names a built-in workload profile (workload.Names).
	Workload string
	// Class is the admission class.
	Class Class
	// Timeout, when nonzero, is the wall-clock budget measured from
	// admission; a job without a result when it expires reports
	// StateTimedOut. It layers on — and is independent of — the
	// virtual-cycle deadline below.
	Timeout time.Duration
	// DeadlineCycles, when nonzero, is a virtual-cycle deadline
	// enforced inside the simulation (core's DeadlineError path).
	DeadlineCycles uint64
}

// JobResult is the guest-visible outcome of a finished job.
// HostInsts counts instructions retired on the exec tile — the same
// goodput numerator the fleet scheduler uses (core's GoodputInsts).
type JobResult struct {
	Cycles    uint64 `json:"cycles"`
	ExitCode  int32  `json:"exit_code"`
	Stdout    string `json:"stdout"`
	HostInsts uint64 `json:"host_insts"`
}

// job is the service's record of one submission. All fields past the
// immutable spec are guarded by the owning Service's mutex.
type job struct {
	id       string
	workload string
	class    Class
	timeout  time.Duration
	deadline uint64

	state     State
	attempts  int
	errMsg    string
	result    *JobResult
	cancelReq bool

	submitted time.Time
	expiry    time.Time // zero when timeout is zero
	started   time.Time // first admission to a batch
	finished  time.Time // terminal transition

	// done is closed exactly once, at the terminal transition.
	done chan struct{}
}

// JobView is the wire snapshot of a job.
type JobView struct {
	ID          string     `json:"id"`
	Workload    string     `json:"workload"`
	Class       string     `json:"class"`
	State       string     `json:"state"`
	Attempts    int        `json:"attempts"`
	Error       string     `json:"error,omitempty"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	Result      *JobResult `json:"result,omitempty"`
}

// view snapshots the job; the caller holds the service mutex.
func (j *job) view() JobView {
	v := JobView{
		ID:          j.id,
		Workload:    j.workload,
		Class:       j.class.String(),
		State:       j.state.String(),
		Attempts:    j.attempts,
		Error:       j.errMsg,
		SubmittedAt: j.submitted,
		Result:      j.result,
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
	}
	return v
}

package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"tilevm/internal/service"
)

// job is one entry of the closed loop's submission sequence.
type job struct {
	profile int // index into the bench's guests
	class   service.Class
}

var svcClasses = []service.Class{service.ClassLow, service.ClassNormal, service.ClassHigh}

// jobBlock is the length of a block of the job sequence: every profile four
// times, every class eight times, and a whole number of eight-job batches.
const jobBlock = 24

// jobSequence yields the seeded job sequence: consecutive blocks, each a fresh
// permutation of the same profiles and, independently, of the same classes.
// A run measures for a fixed time, so the number of jobs varies; the closed
// loop stops at a block boundary, so every run serves the same mix, where
// independent draws would move the mean job cost by several percent from seed
// to seed (job costs differ eightfold).
type jobSequence struct {
	r        *rand.Rand
	profiles int
	block    []job
}

func newJobSequence(seed int64, profiles int) *jobSequence {
	return &jobSequence{r: rand.New(rand.NewSource(seed)), profiles: profiles}
}

func (s *jobSequence) next() job {
	if len(s.block) == 0 {
		classes := s.r.Perm(jobBlock)
		for i, p := range s.r.Perm(jobBlock) {
			s.block = append(s.block, job{p % s.profiles, svcClasses[classes[i]%len(svcClasses)]})
		}
	}
	j := s.block[0]
	s.block = s.block[1:]
	return j
}

// svcStats is what the closed loop saw, from the jobs' JobViews.
type svcStats struct {
	finished   int
	queueWaitS []float64
	runS       []float64
	batches    int
	shed       int
	rejected   int
}

// closedLoop keeps svcOutstanding jobs in the service until d has passed, at
// least minJobs were submitted and a block of the sequence is complete, then
// waits for the rest. One goroutine submits and collects; the service's own
// scheduler runs the batches.
func (b *bench) closedLoop(seq *jobSequence, d time.Duration, minJobs int) *measured {
	m := &measured{svc: &svcStats{}}
	type flight struct {
		id   string
		done <-chan struct{}
		job  job
	}
	var inflight []flight
	submitted := 0
	submit := func() {
		j := seq.next()
		submitted++
		b.attempted++
		v, err := b.svc.Submit(service.Spec{Workload: b.guests[j.profile].name, Class: j.class})
		if err != nil {
			m.svc.rejected++
			b.fail("submit %s: %v", b.guests[j.profile].name, err)
			return
		}
		done, err := b.svc.Done(v.ID)
		if err != nil {
			b.fail("done %s: %v", v.ID, err)
			return
		}
		inflight = append(inflight, flight{v.ID, done, j})
	}

	// Jobs of one batch share their StartedAt; a batch's virtual time is its
	// longest job's.
	batchMax := map[int64]uint64{} // by StartedAt in nanoseconds
	var first, last time.Time
	settle := func(f flight) {
		v, err := b.svc.Get(f.id)
		if err != nil {
			b.fail("get %s: %v", f.id, err)
			return
		}
		if v.State == service.StateShed.String() {
			m.svc.shed++
		}
		g := b.guests[f.job.profile]
		if v.State != service.StateFinished.String() || v.Result == nil || v.StartedAt == nil || v.FinishedAt == nil {
			b.fail("job %s (%s): state %s %s", f.id, g.name, v.State, v.Error)
			return
		}
		if err := checkJob(g, v.Result.ExitCode); err != nil {
			b.fail("job %s: %v", f.id, err)
			return
		}
		m.svc.finished++
		m.insts += g.ref.Insts
		m.slow = append(m.slow, float64(v.Result.Cycles)/float64(g.ref.Cycles))
		m.opCU = append(m.opCU, v.FinishedAt.Sub(v.SubmittedAt).Seconds())
		m.svc.queueWaitS = append(m.svc.queueWaitS, v.StartedAt.Sub(v.SubmittedAt).Seconds())
		m.svc.runS = append(m.svc.runS, v.FinishedAt.Sub(*v.StartedAt).Seconds())
		if at := v.StartedAt.UnixNano(); v.Result.Cycles > batchMax[at] {
			batchMax[at] = v.Result.Cycles
		}
		if first.IsZero() || v.SubmittedAt.Before(first) {
			first = v.SubmittedAt
		}
		if v.FinishedAt.After(last) {
			last = *v.FinishedAt
		}
	}

	use := readHostUse()
	var smp *sampler
	if d > 0 { // not for the warm-up
		smp = startSampler(b.opt.exe)
	}
	var samples []float64
	if smp == nil {
		samples = append(samples, b.cal.sample())
	}
	start := time.Now()
	for i := 0; i < svcOutstanding; i++ {
		submit()
	}
	for len(inflight) > 0 {
		cases := make([]reflect.SelectCase, len(inflight))
		for i, f := range inflight {
			cases[i] = reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(f.done)}
		}
		i, _, _ := reflect.Select(cases)
		settle(inflight[i])
		inflight = append(inflight[:i], inflight[i+1:]...)
		if time.Since(start) < d || submitted < minJobs || submitted%jobBlock != 0 {
			submit()
		}
	}
	if smp != nil {
		samples = smp.stop()
	}
	if len(samples) == 0 || smp == nil {
		samples = append(samples, b.cal.sample())
	}
	if smp == nil && d > 0 {
		note("the calibration kernel was sampled before and after the closed loop only, not during it")
	}
	m.use = readHostUse().sub(use)

	m.unitS = sectionUnit(samples)
	for i, l := range m.opCU { // collected in seconds
		m.opCU[i] = cu(l, m.unitS)
	}
	m.sectionS, m.sections = last.Sub(first).Seconds(), 1
	m.sectionCU = cu(m.sectionS, m.unitS)
	m.svc.batches = len(batchMax)
	for _, c := range batchMax {
		m.vtime += c
	}
	return m
}

// checkJob compares a job's guest-visible outcome, of which the service
// reports the exit code, with the reference.
func checkJob(g *guestCase, exit int32) error {
	if exit != g.ref.ExitCode {
		return fmt.Errorf("%s: exit code %d, reference %d", g.name, exit, g.ref.ExitCode)
	}
	return nil
}

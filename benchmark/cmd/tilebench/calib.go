package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// The calibration kernel is the benchmark's own unit of host work: a fixed
// number of xorshift64 steps, each with a load, a data-dependent branch and a
// store at a pseudo-random place in a buffer too large for the first-level
// caches. One step in four takes its address from the previous load, as the
// simulator's pointer-heavy event machinery does; the others overlap their
// misses, as its block copies do. Host times are reported divided by the
// kernel's wall time ("calibration units", cu), which cancels most of the
// host's speed of the moment: kernel and simulator slow down together when the
// clock drops or a neighbour takes cache and memory bandwidth.
const (
	calibIters  = 6_000_000
	calibWords  = 4 << 20 / 8 // 4 MiB of uint64
	calibPeriod = 250 * time.Millisecond
)

// calibKernel runs the fixed kernel once and returns a value that depends on
// every iteration, so the compiler cannot drop the loop.
func calibKernel(buf []uint64) uint64 {
	x := uint64(88172645463325252)
	var acc uint64
	mask := uint64(len(buf) - 1)
	for i := 0; i < calibIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x
		if i&3 == 0 {
			j += acc
		}
		j &= mask
		v := buf[j]
		if v&1 == 0 {
			acc += v
		} else {
			acc ^= v
		}
		buf[j] = v + x
	}
	return acc
}

// calibSink receives the kernel's result, so that the call cannot be dropped.
var calibSink uint64

// calibrator runs the kernel in this process, on the CPU and at the moment
// the measured work runs: a pass is divided by the mean of the samples taken
// just before and just after it. This host slows down and recovers within
// seconds (identical passes of one run differ by +-20%), and only a sample next
// to the pass, on the same CPU, sees what the pass saw: over six runs of one
// workload and seed the medians spread 21% in raw seconds, 16% divided by one
// unit for the whole run sampled on the other CPU, and 3.3% divided pass by
// pass.
type calibrator struct {
	buf     []uint64
	samples []float64 // seconds, every sample taken
}

func newCalibrator() *calibrator {
	return &calibrator{buf: make([]uint64, calibWords)}
}

// sample runs the kernel once and returns its wall time in seconds.
func (c *calibrator) sample() float64 {
	t0 := time.Now()
	calibSink = calibKernel(c.buf)
	d := time.Since(t0).Seconds()
	c.samples = append(c.samples, d)
	return d
}

// sectionUnit is one cu for a section that cannot be interrupted for samples
// (the service's closed loop): the tenth percentile of the samples taken while
// it ran. Interference only ever slows the kernel, so the fast end of its
// distribution is the steady part, while a slower host moves all of it; not
// the minimum, so that one lucky sample does not set the unit.
func sectionUnit(samples []float64) float64 {
	v, _ := percentile(samples, 10)
	return v
}

// sampler is the calibration kernel in a child process (this binary with
// -calibrate), sampling every calibPeriod on the CPU the one-P parent leaves
// free. It serves the closed loop, whose timed section has no gaps in which
// the parent could run the kernel itself.
type sampler struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stdout bytes.Buffer
	cancel context.CancelFunc
}

// startSampler starts the child; it returns nil when there is no second CPU
// or no binary to start, and the caller samples in-process around the section.
func startSampler(exe string) *sampler {
	if exe == "" || runtime.NumCPU() < 2 {
		return nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &sampler{cmd: exec.CommandContext(ctx, exe, "-calibrate"), cancel: cancel}
	s.cmd.Stdout = &s.stdout
	stdin, err := s.cmd.StdinPipe()
	if err == nil {
		err = s.cmd.Start()
	}
	if err != nil {
		cancel()
		note("calibration sampler: %v", err)
		return nil
	}
	s.stdin = stdin
	return s
}

// stop ends the child, waits for it and returns its samples in seconds.
func (s *sampler) stop() []float64 {
	s.stdin.Close() // the sampler exits when its standard input ends
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		s.cancel() // kills it
		<-done
	}
	s.cancel()
	var out []float64
	for _, f := range strings.Fields(s.stdout.String()) {
		if v, err := strconv.ParseFloat(f, 64); err == nil && v > 0 {
			out = append(out, v)
		}
	}
	return out
}

// cu converts seconds to calibration units.
func cu(seconds, unit float64) float64 {
	if unit <= 0 {
		return 0
	}
	return seconds / unit
}

// calibrateMain is the sampler process: it prints the kernel's wall time in
// seconds, one sample a line, every calibPeriod until standard input ends.
func calibrateMain() {
	eof := make(chan struct{})
	go func() {
		io.Copy(io.Discard, os.Stdin)
		close(eof)
	}()
	buf := make([]uint64, calibWords)
	t := time.NewTicker(calibPeriod)
	defer t.Stop()
	for {
		t0 := time.Now()
		calibSink = calibKernel(buf)
		fmt.Println(time.Since(t0).Seconds())
		select {
		case <-eof:
			return
		case <-t.C:
		}
	}
}

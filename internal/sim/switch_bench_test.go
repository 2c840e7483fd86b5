package sim_test

import (
	"testing"

	"tilevm/internal/bench"
)

// BenchmarkProcSwitch measures a park that must switch goroutines: two
// processes alternating. (External test package: the benchmark body is
// shared with cmd/simbench and benchcheck through internal/bench, which
// imports this package.)
func BenchmarkProcSwitch(b *testing.B) { bench.ProcSwitchBench(2)(b) }

// BenchmarkProcSwitch64 is the same hand-off with 64 processes in the
// event heap, the shape of a fleet on an 8×8 fabric.
func BenchmarkProcSwitch64(b *testing.B) { bench.ProcSwitchBench(64)(b) }

// BenchmarkTickRecv measures a Recv entered with accrued local time,
// the service tiles' steady state: one dispatch per received message.
func BenchmarkTickRecv(b *testing.B) { bench.TickRecvBench()(b) }

// BenchmarkHandlerDispatch is a request answered by a handler process
// on the requester's own goroutine: two dispatches, no switch.
func BenchmarkHandlerDispatch(b *testing.B) { bench.HandlerDispatchBench()(b) }

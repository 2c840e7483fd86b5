package bench

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"tilevm/internal/checkpoint"
	"tilevm/internal/core"
)

// recordedRun is the faulted rollback run the record-replay tests
// exercise: a fail-stop bank fault whose excision would lose
// writebacks, so the run checkpoints, rolls back, and re-executes.
func recordedRun() checkpoint.RecordConfig {
	return checkpoint.RecordConfig{
		Workload:       "181.mcf",
		Slaves:         6,
		Speculative:    true,
		L15Banks:       2,
		MemBanks:       4,
		Optimize:       true,
		MorphThreshold: 5,
		FaultPlan:      "fail:7@150000,fail:14@300000,fail:2@450000",
	}
}

// TestRecordReplayIdenticalCycles pins the determinism contract: a
// recorded run (including a fault, a checkpoint restore, and
// re-execution) replays to the exact cycle count, exit code, state
// hash, and event-for-event journal — surviving a trip through the
// record file encoding.
func TestRecordReplayIdenticalCycles(t *testing.T) {
	res, rec, err := RunRecorded(recordedRun(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.M.Rollbacks == 0 {
		t.Fatal("the recorded run did not roll back; the test scenario no longer exercises recovery")
	}
	if len(rec.Events) == 0 {
		t.Fatal("recorded run journaled no events")
	}

	path := filepath.Join(t.TempDir(), "run.tvrc")
	if err := checkpoint.WriteRecordFile(path, rec); err != nil {
		t.Fatal(err)
	}
	rec2, err := checkpoint.ReadRecordFile(path)
	if err != nil {
		t.Fatal(err)
	}

	rep, err := Replay(rec2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Match || rep.FirstDivergent != -1 {
		t.Fatalf("replay diverged:\n%s", rep)
	}
	if rep.CyclesGot != res.Cycles {
		t.Fatalf("replay cycles %d != recorded %d", rep.CyclesGot, res.Cycles)
	}
}

// TestReplayToCycle: a truncated replay halts at the requested cycle
// and still matches the recorded journal prefix.
func TestReplayToCycle(t *testing.T) {
	_, rec, err := RunRecorded(recordedRun(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(rec, rec.Final.Cycles/2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FirstDivergent != -1 {
		t.Fatalf("truncated replay diverged from the recorded prefix:\n%s", rep)
	}
	if rep.CyclesGot >= rec.Final.Cycles {
		t.Fatalf("partial replay did not truncate: ran %d of %d cycles",
			rep.CyclesGot, rec.Final.Cycles)
	}
}

// TestReplayDetectsDivergence: corrupting one journal event in the
// record makes the replay bisect to exactly that event.
func TestReplayDetectsDivergence(t *testing.T) {
	_, rec, err := RunRecorded(recordedRun(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Events) < 4 {
		t.Fatalf("journal too short to corrupt (%d events)", len(rec.Events))
	}
	victim := len(rec.Events) / 2
	rec.Events[victim].B ^= 1
	rep, err := Replay(rec, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Match {
		t.Fatal("replay matched a corrupted record")
	}
	if rep.FirstDivergent != victim {
		t.Fatalf("bisection found event %d, corrupted event %d", rep.FirstDivergent, victim)
	}
}

// TestTracedRecordReplay: tracing charges no virtual cycles, so a traced
// record journals the untraced record's events and final state, and a
// traced replay of it writes the recording run's trace, byte for byte.
func TestTracedRecordReplay(t *testing.T) {
	_, plain, err := RunRecorded(recordedRun(), nil)
	if err != nil {
		t.Fatal(err)
	}
	recTrc := core.NewTracer(50_000)
	_, rec, err := RunRecorded(recordedRun(), recTrc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec.Events, plain.Events) || rec.Final != plain.Final {
		t.Fatalf("tracing changed the record: final %+v, untraced %+v", rec.Final, plain.Final)
	}
	repTrc := core.NewTracer(50_000)
	rep, err := Replay(rec, 0, repTrc)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Match || rep.FirstDivergent != -1 {
		t.Fatalf("traced replay diverged:\n%s", rep)
	}
	var want, got bytes.Buffer
	if err := recTrc.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if err := repTrc.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if recTrc.Len() == 0 || !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("replay trace: %d events, %d bytes; recording run's: %d events, %d bytes",
			repTrc.Len(), got.Len(), recTrc.Len(), want.Len())
	}
}

package sim

import (
	"testing"
	"time"
)

// TestFenceSameCycleWaiters pins the sharded engine's one known hang
// ("two execution tiles parked in Fence"): two processes of different
// shards fence at the same virtual cycle, the smaller pid first in host
// time. The first cannot be granted while the second's shard is mid-
// dispatch at that cycle and not yet waiting; the second, once it
// waits, cannot be granted ahead of the first. Entering the wait is
// what makes the first grantable, so entering it must wake the first —
// the host-time order is forced here with a sleep, the only way to
// reach the interleaving deterministically.
func TestFenceSameCycleWaiters(t *testing.T) {
	s := New()
	s.SetWorkers(2)
	var order []int
	s.Spawn("first", func(p *Proc) {
		p.Advance(10)
		p.Fence()
		order = append(order, p.ID())
	})
	s.Spawn("second", func(p *Proc) {
		p.Advance(10)
		time.Sleep(50 * time.Millisecond) // let "first" reach its fence wait
		p.Fence()
		order = append(order, p.ID())
	}).SetShard(1)
	done := make(chan error, 1)
	go func() { done <- s.Run() }()
	select {
	case err := <-done:
		if err != nil || len(order) != 2 || order[0] != 0 || order[1] != 1 {
			t.Fatalf("Run = %v, fence order %v, want nil and [0 1]", err, order)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("both processes are parked in Fence: the second waiter did not wake the first")
	}
}

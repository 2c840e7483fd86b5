// Command tilevmd is the long-lived fleet daemon: an HTTP/JSON front
// end over the deterministic fleet engine. Clients submit named
// workloads as jobs into a bounded, priority-classed admission queue;
// a scheduler goroutine packs them into VM-slot batches and runs each
// batch through core.RunFleet. Overload sheds instead of growing
// memory, every failure mode (panic, timeout, deadline, cancel)
// surfaces as a structured terminal job state, and SIGTERM drains
// gracefully: admission closes, in-flight and queued jobs finish, the
// process exits 0.
//
//	tilevmd -addr 127.0.0.1:8642 -grid 8x8 -queue-cap 64
//
// Endpoints:
//
//	POST /api/v1/jobs             submit {"workload":..., "class":..., "timeout_ms":..., "deadline_cycles":...}
//	GET  /api/v1/jobs             list retained jobs
//	GET  /api/v1/jobs/{id}        one job
//	POST /api/v1/jobs/{id}/cancel cancel (queued or running)
//	GET  /metrics                 Prometheus text format
//	GET  /healthz, /readyz        liveness / readiness (readyz flips 503 on drain)
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tilevm/internal/raw"
	"tilevm/internal/service"
)

func die(err error) {
	fmt.Fprintln(os.Stderr, "tilevmd:", err)
	os.Exit(1)
}

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8642", "listen address (host:port; :0 picks a free port)")
		grid         = flag.String("grid", "8x8", "fabric size WxH; each VM slot takes 8 tiles")
		queueCap     = flag.Int("queue-cap", 64, "admission queue capacity; beyond it arrivals shed lower-class jobs or get a structured 429")
		retain       = flag.Int("retain", 1024, "terminal jobs kept queryable before aging out oldest-first")
		planner      = flag.Bool("planner", false, "cost-model placement planner: grow slots on undersubscribed fabrics and split tiles per guest profile")
		maxCycles    = flag.Uint64("maxcycles", 0, "per-batch virtual-cycle watchdog (0 = default)")
		maxAttempts  = flag.Int("max-attempts", 0, "batches a job may be admitted to before it fails (0 = default)")
		drainTimeout = flag.Duration("drain-timeout", time.Minute, "graceful-drain budget after SIGTERM; the queue is abandoned and the batch interrupted when it expires")
		verbose      = flag.Bool("v", false, "print each retained job's final state at drain")
	)
	flag.Parse()

	w, h, err := raw.ParseGrid(*grid)
	if err != nil {
		die(err)
	}
	if *drainTimeout <= 0 {
		die(fmt.Errorf("-drain-timeout must be positive"))
	}

	svc, err := service.New(service.Config{
		Width:          w,
		Height:         h,
		QueueCap:       *queueCap,
		Retain:         *retain,
		MaxJobAttempts: *maxAttempts,
		Planner:        *planner,
		MaxCycles:      *maxCycles,
	})
	if err != nil {
		die(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		die(err)
	}
	// The resolved address matters when -addr ends in :0; the smoke
	// harness parses this line to find the port.
	fmt.Printf("tilevmd: listening on %s (%d VM slots, queue cap %d)\n",
		ln.Addr(), svc.Slots(), *queueCap)

	srv := &http.Server{Handler: svc.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)

	select {
	case sig := <-sigs:
		fmt.Printf("tilevmd: %v, draining (timeout %v)\n", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := svc.Drain(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "tilevmd: drain deadline hit, remaining jobs canceled (%v)\n", err)
		}
		shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer shutCancel()
		srv.Shutdown(shutCtx)
		if *verbose {
			for _, v := range svc.List() {
				fmt.Printf("tilevmd: job %s %s (%s)\n", v.ID, v.State, v.Error)
			}
		}
		fmt.Println("tilevmd: drained, exiting")
	case err := <-serveErr:
		die(fmt.Errorf("http server: %w", err))
	}
}

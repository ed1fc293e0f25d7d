// Command care-server runs the campaign-execution daemon: an
// HTTP/JSON API for submitting, inspecting, and cancelling simulation
// jobs over a durable journal-backed queue. Jobs execute on care-worker
// processes; -workers N also runs one in-process care-worker with N
// slots, which claims over loopback through the same leased, fenced
// worker API. Every job runs under the harness supervisor
// (checkpointed, retried with jittered backoff), so a crash — or a
// kill -9 — loses nothing: on restart the journal replays and
// interrupted jobs resume from their checkpoints. The journal is
// append-only and holds one record per job transition (heartbeats are
// not journaled); it is never rewritten, so an event-stream client's
// Last-Event-ID resumes exactly across restarts.
//
// Usage:
//
//	care-server -addr 127.0.0.1:7077 -data /var/lib/care
//
// Submit a sweep and watch it:
//
//	curl -s localhost:7077/api/v1/jobs -d '{"kind":"spec",
//	  "workloads":["429.mcf","470.lbm"],"policies":["care","lru"],
//	  "cores":1,"warmup":30000,"measure":100000}'
//	curl -s localhost:7077/api/v1/jobs
//	curl -s localhost:7077/healthz
//
// SIGTERM/SIGINT drain gracefully: running simulations stop at their
// next scheduled checkpoint, requeue durably, and the process exits
// cleanly; the next start resumes them.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"care/internal/faultinject"
	"care/internal/server"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr     = flag.String("addr", "127.0.0.1:7077", "HTTP listen address")
		dataDir  = flag.String("data", "care-server-data", "data directory (journal, checkpoints, telemetry)")
		workers  = flag.Int("workers", 2, "slots of the in-process care-worker (0 = none; jobs run only on remote care-worker processes)")
		drainFor = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for in-flight jobs to reach their next checkpoint")
		leaseChk = flag.Duration("lease-check-every", time.Second, "remote-lease expiry sweep period")
		faults   = flag.String("faults", "", "deterministic fault-injection spec; server classes (server-kill-append, journal-tear, worker-panic) act on this process, simulation classes are passed into every job")
		addrFile = flag.String("addr-file", "", "write the bound address to this file once listening (for scripts that use -addr :0)")
	)
	flag.Parse()

	cfg := server.Config{
		Addr:            *addr,
		DataDir:         *dataDir,
		Workers:         *workers,
		NoLocalWorkers:  *workers == 0,
		DrainTimeout:    *drainFor,
		LeaseCheckEvery: *leaseChk,
	}
	if *faults != "" {
		fc, err := faultinject.ParseSpec(*faults)
		if err != nil {
			fmt.Fprintln(os.Stderr, "care-server:", err)
			return 2
		}
		cfg.Faults = &fc
	}

	s, err := server.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "care-server:", err)
		return 1
	}
	if err := s.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "care-server:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "care-server: listening on %s (data %s, %d workers)\n",
		s.Addr(), *dataDir, *workers)
	if *addrFile != "" {
		// Write-then-rename so a watcher never reads a partial address.
		tmp := *addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(s.Addr()), 0o644); err == nil {
			err = os.Rename(tmp, *addrFile)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "care-server:", err)
			return 1
		}
	}

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "care-server: %s — draining (signal again to abort)\n", sig)
	case err := <-s.ServeErr():
		fmt.Fprintln(os.Stderr, "care-server:", err)
		return 1
	}

	// A second signal during the drain aborts immediately; the journal
	// and checkpoints make even that safe, it just loses the current
	// segment's progress.
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "care-server: aborted")
		os.Exit(130)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), *drainFor+10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "care-server: shutdown:", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "care-server: drained cleanly")
	return 0
}

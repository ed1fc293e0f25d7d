// Command care-worker runs simulation jobs claimed from a care-server
// over HTTP. Each claim grants a time-bounded lease, renewed by
// heartbeats and fenced by a journaled token, so a worker that is
// killed, partitioned, or paused loses the job cleanly: the server
// expires the lease, another worker resumes from the last uploaded
// checkpoint, and a late write-back from the original holder is
// rejected as stale. Results are byte-identical to an uninterrupted
// local run no matter how many machines a job migrates across.
//
// Usage:
//
//	care-worker -server http://127.0.0.1:7077 -name w1 -data /tmp/w1
//
// SIGTERM/SIGINT drain gracefully: the running job stops at its next
// scheduled checkpoint, uploads it, and requeues for another worker.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"care/careapi"
	"care/internal/faultinject"
	"care/internal/sim"
	"care/internal/worker"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		serverURL = flag.String("server", "http://127.0.0.1:7077", "care-server base URL")
		name      = flag.String("name", "", "stable worker name (required; leases are fenced per worker)")
		dataDir   = flag.String("data", "", "local scratch directory for job checkpoints (default care-worker-<name>)")
		leaseTTL  = flag.Duration("lease-ttl", 30*time.Second, "lease duration requested on claims")
		heartbeat = flag.Duration("heartbeat", 0, "lease renew period (0 = lease-ttl/3)")
		poll      = flag.Duration("poll", 500*time.Millisecond, "idle claim retry period")
		slots     = flag.Int("slots", 1, "concurrent job slots (each claims, runs, and heartbeats independently)")
		cores     = flag.Int("cores", 0, "declared core count for constraint matching (0 = undeclared)")
		memMB     = flag.Int64("mem-mb", 0, "declared memory in MiB for constraint matching (0 = undeclared)")
		labels    = flag.String("labels", "", "comma-separated placement labels (e.g. ssd,numa)")
		faults    = flag.String("faults", "", "deterministic fault-injection spec; net-* classes act on this worker's HTTP transport, worker-panic on its job slots, simulation classes run inside every job")
	)
	flag.Parse()
	if *name == "" {
		fmt.Fprintln(os.Stderr, "care-worker: -name is required")
		return 2
	}
	if *name == careapi.LocalWorker {
		fmt.Fprintf(os.Stderr, "care-worker: -name %s is reserved for care-server's in-process worker\n", *name)
		return 2
	}
	if *dataDir == "" {
		*dataDir = "care-worker-" + *name
	}

	cfg := worker.Config{
		Server:    *serverURL,
		Name:      *name,
		DataDir:   *dataDir,
		LeaseTTL:  *leaseTTL,
		Heartbeat: *heartbeat,
		Poll:      *poll,
		Slots:     *slots,
		Cores:     *cores,
		MemMB:     *memMB,
	}
	if *labels != "" {
		for _, l := range strings.Split(*labels, ",") {
			if l = strings.TrimSpace(l); l != "" {
				cfg.Labels = append(cfg.Labels, l)
			}
		}
	}
	if *faults != "" {
		fc, err := faultinject.ParseSpec(*faults)
		if err != nil {
			fmt.Fprintln(os.Stderr, "care-worker:", err)
			return 2
		}
		cfg.Faults = &fc
	}

	w, err := worker.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "care-worker:", err)
		return 1
	}

	// Drain on signal: cancelling with sim.ErrDrain as the cause makes
	// the running job stop at its next *scheduled* checkpoint (keeping
	// its eventual result bit-identical), upload it, and requeue.
	ctx, cancelCause := context.WithCancelCause(context.Background())
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		fmt.Fprintf(os.Stderr, "care-worker %s: %s — draining (signal again to abort)\n", *name, sig)
		cancelCause(sim.ErrDrain)
		<-sigc
		fmt.Fprintf(os.Stderr, "care-worker %s: aborted\n", *name)
		os.Exit(130)
	}()

	err = w.Run(ctx)
	if err != nil && !errors.Is(err, sim.ErrDrain) && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "care-worker:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "care-worker %s: drained cleanly\n", *name)
	return 0
}

// Server-level crash classes: deterministic process kills, torn
// journal writes, and worker panics for care-server's chaos tests.
// Unlike the simulation faults, these hooks are called from multiple
// goroutines (HTTP handlers appending to the journal, worker slots
// starting jobs), so their counters are mutex-guarded.
package faultinject

import (
	"errors"
	"fmt"
	"os"
	"sync"
)

// ErrInjectedAppend is the failure returned by the append-err class:
// the journal append was refused before any bytes were written.
var ErrInjectedAppend = errors.New("faultinject: injected journal append failure")

// exitProcess is the process-kill primitive, stubbed in unit tests.
// Exit code 137 mirrors a SIGKILL death, which is what these faults
// model.
var exitProcess = func() {
	os.Exit(137)
}

// serverState holds the concurrency-guarded server fault counters; it
// lives beside the Injector so the simulation hot path never touches
// a mutex.
type serverState struct {
	mu       sync.Mutex
	appends  uint64
	attempts uint64
	jobs     uint64
	panicked bool
}

// server lazily allocates the guarded state.
func (in *Injector) server() *serverState {
	in.srvOnce.Do(func() { in.srv = &serverState{} })
	return in.srv
}

// OnJournalAppend fires the journal crash classes. The caller invokes
// it after the Nth append is durable (fsynced) but before the append
// is acknowledged or applied to in-memory state. recStart and recLen
// locate the just-written record inside f so a torn write can chop it
// mid-record. When a class fires the process dies here and never
// returns.
func (in *Injector) OnJournalAppend(f *os.File, recStart, recLen int64) {
	if !in.cfg.ServerEnabled() {
		return
	}
	st := in.server()
	st.mu.Lock()
	st.appends++
	n := st.appends
	st.mu.Unlock()
	if in.cfg.ServerTearAppendNth > 0 && n == in.cfg.ServerTearAppendNth {
		// Chop the record in half: the tail bytes of the journal no
		// longer parse, exactly as a crash mid-write leaves them.
		fmt.Fprintf(os.Stderr, "faultinject: tearing journal after append %d and killing process\n", n)
		_ = f.Truncate(recStart + recLen/2)
		_ = f.Sync()
		exitProcess()
	}
	if in.cfg.ServerKillAppendNth > 0 && n == in.cfg.ServerKillAppendNth {
		fmt.Fprintf(os.Stderr, "faultinject: killing process after journal append %d (before ack)\n", n)
		exitProcess()
	}
}

// OnJournalAppendAttempt fires the append-err class: the Nth append
// *attempt* (counted before any bytes are written, unlike the
// post-durability counter OnJournalAppend uses) returns an injected
// error and the journal stays untouched. Callers must treat the
// refused commit as if it never happened — which is exactly what the
// atomic-submission paths are tested on.
func (in *Injector) OnJournalAppendAttempt() error {
	if in.cfg.ServerAppendErrNth == 0 {
		return nil
	}
	st := in.server()
	st.mu.Lock()
	st.attempts++
	fire := st.attempts == in.cfg.ServerAppendErrNth
	if fire {
		in.stats.AppendErrors++
	}
	st.mu.Unlock()
	if fire {
		return fmt.Errorf("%w (append attempt %d)", ErrInjectedAppend, in.cfg.ServerAppendErrNth)
	}
	return nil
}

// BeginServerJob counts job executions and panics the worker running
// the Nth one, once. The worker's recover turns it into a requeue.
func (in *Injector) BeginServerJob() {
	if in.cfg.ServerWorkerPanicNth == 0 {
		return
	}
	st := in.server()
	st.mu.Lock()
	st.jobs++
	fire := !st.panicked && st.jobs == in.cfg.ServerWorkerPanicNth
	if fire {
		st.panicked = true
		in.stats.WorkerPanics++
	}
	st.mu.Unlock()
	if fire {
		panic(fmt.Sprintf("faultinject: injected worker panic on job %d", in.cfg.ServerWorkerPanicNth))
	}
}

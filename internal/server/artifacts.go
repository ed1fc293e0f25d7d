// Artifact store: server-side custody of job checkpoints, so a job
// leased by one worker can resume on a different machine. A worker
// uploads its latest on-schedule checkpoint alongside heartbeats;
// whoever claims the job next downloads it and resumes from the same
// boundary, keeping results byte-identical to an uninterrupted run.
package server

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"care/internal/checkpoint"
)

// ArtifactStore keeps one checkpoint file per job under
// DataDir/artifacts. Writes are atomic (private tmp + rename) and
// verified structurally before they replace the previous artifact, so a
// half-uploaded or bit-flipped checkpoint can never shadow a good
// one. Concurrency control lives with the caller: the worker API
// only lets the current lease holder touch a job's artifact, and the
// queue lock serialises lease decisions.
type ArtifactStore struct {
	dir string
}

// NewArtifactStore creates (if needed) and returns the store rooted
// at dir.
func NewArtifactStore(dir string) (*ArtifactStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: artifact dir: %w", err)
	}
	// Uploads cut short by a crash leave their private tmp files.
	stale, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	for _, f := range stale {
		os.Remove(f)
	}
	return &ArtifactStore{dir: dir}, nil
}

// path maps a job ID to its artifact file. Job IDs are server-
// assigned ("jNNNNNN") but the pattern guards against traversal all
// the same.
func (st *ArtifactStore) path(job string) (string, error) {
	if job == "" || strings.ContainsAny(job, "/\\.") {
		return "", fmt.Errorf("server: bad artifact job id %q", job)
	}
	return filepath.Join(st.dir, job+".ckpt"), nil
}

// Put stores r as job's checkpoint artifact. The upload lands in a
// tmp file of its own, is verified as a structurally complete
// checkpoint container (header, per-frame CRCs, end marker), and only
// then renamed over the previous artifact, with the directory fsynced
// so the rename survives a crash. Overlapping uploads for one job (an
// old lease holder's slow upload racing the new holder's) each write
// a private file, so the artifact left in place is always one whole,
// verified upload. Returns the stored size.
func (st *ArtifactStore) Put(job string, r io.Reader) (n int64, err error) {
	path, err := st.path(job)
	if err != nil {
		return 0, err
	}
	f, err := os.CreateTemp(st.dir, job+".*.tmp")
	if err != nil {
		return 0, fmt.Errorf("server: artifact upload: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	if n, err = io.Copy(f, r); err != nil {
		return 0, fmt.Errorf("server: artifact upload: %w", err)
	}
	if err = f.Sync(); err != nil {
		return 0, fmt.Errorf("server: artifact sync: %w", err)
	}
	if _, err = f.Seek(0, io.SeekStart); err != nil {
		return 0, fmt.Errorf("server: artifact verify: %w", err)
	}
	if _, err = checkpoint.Verify(f); err != nil {
		return 0, fmt.Errorf("server: artifact rejected: %w", err)
	}
	if err = f.Close(); err != nil {
		return 0, fmt.Errorf("server: artifact close: %w", err)
	}
	if err = os.Rename(f.Name(), path); err != nil {
		return 0, fmt.Errorf("server: artifact install: %w", err)
	}
	if err = fsyncDir(st.dir); err != nil {
		return 0, fmt.Errorf("server: artifact install: %w", err)
	}
	return n, nil
}

// Open returns the artifact for job, its size, and a nil error; a
// missing artifact reports os.ErrNotExist (the job simply has no
// checkpoint yet — the claimer starts fresh).
func (st *ArtifactStore) Open(job string) (io.ReadCloser, int64, error) {
	path, err := st.path(job)
	if err != nil {
		return nil, 0, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, fi.Size(), nil
}

// Remove deletes job's artifact (terminal jobs no longer need one).
// Removing a missing artifact is not an error.
func (st *ArtifactStore) Remove(job string) error {
	path, err := st.path(job)
	if err != nil {
		return err
	}
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// Bytes totals the bytes currently stored (a /metrics gauge).
func (st *ArtifactStore) Bytes() int64 {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".ckpt") {
			continue
		}
		if fi, err := e.Info(); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// Count reports how many artifacts are stored.
func (st *ArtifactStore) Count() int {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".ckpt") {
			n++
		}
	}
	return n
}

// fsyncDir makes a just-renamed directory entry durable. Sync errors
// are swallowed: some filesystems refuse fsync on directories, and
// the rename itself already happened.
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}

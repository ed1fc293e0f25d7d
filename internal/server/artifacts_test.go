package server

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"care/internal/checkpoint"
)

// testCheckpoint returns a structurally complete checkpoint container
// whose one frame holds v.
func testCheckpoint(t *testing.T, v uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := checkpoint.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Frame("state", func(s *checkpoint.State) { checkpoint.Uint(s, &v) }); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// gate is an upload body segment that stalls mid-body: its Read
// closes reached, then waits for resume.
type gate struct{ reached, resume chan struct{} }

func (g gate) Read([]byte) (int, error) {
	close(g.reached)
	<-g.resume
	return 0, io.EOF
}

// TestArtifactStoreOverlappingPuts: an old lease holder's upload
// stalls halfway through its body while the new holder's upload for
// the same job lands. Each upload must write its own tmp file, so both
// succeed, the artifact left installed is one whole upload that
// verifies, and no tmp file is left behind.
func TestArtifactStoreOverlappingPuts(t *testing.T) {
	dir := t.TempDir()
	// A tmp file a crashed upload left behind is cleared on open.
	if err := os.WriteFile(filepath.Join(dir, "j000009.123.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := NewArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	slow, fast := testCheckpoint(t, 1), testCheckpoint(t, 2)
	g := gate{make(chan struct{}), make(chan struct{})}
	done := make(chan error, 1)
	go func() {
		h := len(slow) / 2
		_, err := st.Put("j000001", io.MultiReader(bytes.NewReader(slow[:h]), g, bytes.NewReader(slow[h:])))
		done <- err
	}()
	<-g.reached
	if _, err := st.Put("j000001", bytes.NewReader(fast)); err != nil {
		t.Fatalf("overlapping upload: %v", err)
	}
	close(g.resume)
	if err := <-done; err != nil {
		t.Fatalf("stalled upload: %v", err)
	}

	f, _, err := st.Open("j000001")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkpoint.Verify(bytes.NewReader(got)); err != nil {
		t.Fatalf("installed artifact does not verify: %v", err)
	}
	if !bytes.Equal(got, slow) {
		t.Fatal("installed artifact is not the last upload to finish")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || st.Count() != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("artifact dir holds %v, want only j000001.ckpt", names)
	}
}

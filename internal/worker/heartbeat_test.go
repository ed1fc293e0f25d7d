package worker

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"care/internal/checkpoint"
	"care/internal/sim"
)

// TestHeartbeatCheckpointRead: one read of the live checkpoint gives
// both the watermark and the bytes to upload. A missing file and a
// torn one give neither, and bytes that hash to the last upload come
// back without being parsed again.
func TestHeartbeatCheckpointRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if data, _ := readCheckpoint(path, 0); data != nil {
		t.Fatal("a missing checkpoint read as bytes")
	}
	meta := sim.RunMeta{Cycle: 123456, Phase: "measure", Measure: 80_000, Every: 20_000, Done: 40_000}
	if err := checkpoint.Save(path, func(w *checkpoint.Writer) error {
		return w.Frame("meta", meta.Checkpoint)
	}); err != nil {
		t.Fatal(err)
	}
	data, sum := readCheckpoint(path, 0)
	if data == nil {
		t.Fatal("a complete checkpoint read as torn")
	}
	p := progress(3, data, time.Now())
	if p.Slot != 3 || p.Phase != "measure" || p.Cycles != 123456 || p.Instructions != 40_000 || p.Checkpoint != 2 {
		t.Fatalf("watermark %+v does not describe the checkpoint %+v", p, meta)
	}

	// A torn file (the reader raced a save) has no watermark; unless it
	// hashes to the last upload, which verified, it is parsed again.
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if torn, _ := readCheckpoint(path, sum); torn != nil {
		t.Fatal("a torn checkpoint read as complete")
	}
	if p := progress(3, nil, time.Now()); p.Phase != "" || p.Cycles != 0 {
		t.Fatalf("watermark %+v without a checkpoint", p)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if again, s := readCheckpoint(path, sum); again == nil || s != sum {
		t.Fatal("the uploaded checkpoint did not read back")
	}
}

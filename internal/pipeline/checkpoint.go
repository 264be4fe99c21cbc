package pipeline

import (
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"

	"seastar/internal/nn"
)

// Checkpoint is a resumable snapshot of mini-batch training: how many
// epochs completed, the sampler base seed (resume refuses a mismatched
// seed — the epoch plans would diverge), parameter values, and the Adam
// moments. Serialized with encoding/gob, written atomically.
type Checkpoint struct {
	Epoch    int // epochs fully completed; training resumes at this epoch
	BaseSeed int64
	Params   []TensorState
	Opt      nn.AdamState
}

// TensorState is one serialized tensor.
type TensorState struct {
	Shape []int
	Data  []float32
}

// CaptureParams deep-copies parameter values for a checkpoint.
func CaptureParams(params []*nn.Variable) []TensorState {
	out := make([]TensorState, len(params))
	for i, p := range params {
		out[i] = TensorState{
			Shape: append([]int(nil), p.Value.Shape()...),
			Data:  append([]float32(nil), p.Value.Data()...),
		}
	}
	return out
}

// RestoreParams copies a checkpoint's values back into params, which
// must match in count and shape.
func RestoreParams(params []*nn.Variable, st []TensorState) error {
	if len(params) != len(st) {
		return fmt.Errorf("pipeline: checkpoint has %d params, model has %d", len(st), len(params))
	}
	for i, p := range params {
		if len(st[i].Data) != p.Value.Size() {
			return fmt.Errorf("pipeline: checkpoint param %d has %d elements, model has %d",
				i, len(st[i].Data), p.Value.Size())
		}
		copy(p.Value.Data(), st[i].Data)
	}
	return nil
}

// Save writes the checkpoint atomically: gob to a temp file in the same
// directory, fsync, rename. A crash mid-save leaves the previous
// checkpoint intact.
func (c *Checkpoint) Save(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("pipeline: checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := gob.NewEncoder(tmp).Encode(c); err != nil {
		tmp.Close()
		return fmt.Errorf("pipeline: checkpoint encode: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("pipeline: checkpoint sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("pipeline: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("pipeline: checkpoint rename: %w", err)
	}
	return nil
}

// LoadCheckpoint reads a checkpoint written by Save. A missing file is
// reported via os.IsNotExist on the wrapped error's cause; callers that
// treat "no checkpoint yet" as a cold start should os.Stat first.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var c Checkpoint
	if err := gob.NewDecoder(f).Decode(&c); err != nil {
		return nil, fmt.Errorf("pipeline: checkpoint decode %s: %w", path, err)
	}
	return &c, nil
}

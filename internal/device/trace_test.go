package device

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestTraceRecordsKernels(t *testing.T) {
	d := New(V100)
	d.LaunchKernel(Launch{Name: "before", Blocks: 1, ThreadsPerBlock: 256, UniformBlockCycles: 10})
	d.EnableTrace()
	d.LaunchKernel(Launch{Name: "a", Blocks: 4, ThreadsPerBlock: 256, UniformBlockCycles: 100, LoadBytes: 1024})
	d.LaunchKernel(Launch{Name: "b", Blocks: 2, ThreadsPerBlock: 128, UniformBlockCycles: 50})
	d.LaunchKernel(Launch{Name: "a", Blocks: 4, ThreadsPerBlock: 256, UniformBlockCycles: 100})
	tr := d.Trace()
	if len(tr) != 3 {
		t.Fatalf("trace length %d (pre-enable kernel must be excluded)", len(tr))
	}
	if tr[0].Name != "a" || tr[0].Blocks != 4 || tr[0].LoadB != 1024 {
		t.Fatalf("record: %+v", tr[0])
	}
	if tr[1].StartNs < tr[0].StartNs+tr[0].DurNs {
		t.Fatal("records must not overlap on the single simulated stream")
	}
	if tr[0].ActiveTF != 1 {
		t.Fatalf("default active fraction: %v", tr[0].ActiveTF)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	d := New(RTX2080Ti)
	d.EnableTrace()
	d.LaunchKernel(Launch{Name: "k1", Blocks: 8, ThreadsPerBlock: 256, UniformBlockCycles: 500})
	var buf bytes.Buffer
	if err := d.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatal(err)
	}
	if len(parsed.TraceEvents) != 1 || parsed.TraceEvents[0].Name != "k1" ||
		parsed.TraceEvents[0].Ph != "X" || parsed.TraceEvents[0].Dur <= 0 {
		t.Fatalf("chrome trace: %s", buf.String())
	}
	if !strings.Contains(buf.String(), `"sched":"hardware"`) {
		t.Fatal("missing args")
	}
}

func TestSummarizeTrace(t *testing.T) {
	d := New(V100)
	d.EnableTrace()
	d.LaunchKernel(Launch{Name: "small", Blocks: 1, ThreadsPerBlock: 256, UniformBlockCycles: 10})
	d.LaunchKernel(Launch{Name: "big", Blocks: 1, ThreadsPerBlock: 256, UniformBlockCycles: 1e6})
	d.LaunchKernel(Launch{Name: "small", Blocks: 1, ThreadsPerBlock: 256, UniformBlockCycles: 10})
	s := d.SummarizeTrace()
	if len(s) != 2 {
		t.Fatalf("summary: %+v", s)
	}
	if s[0].Name != "big" {
		t.Fatalf("summary not sorted by total time: %+v", s)
	}
	if s[1].Name != "small" || s[1].Count != 2 {
		t.Fatalf("summary counts: %+v", s)
	}
}

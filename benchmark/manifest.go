package main

import "encoding/json"

// runSeconds is how long the driver asks one run to measure.
const runSeconds = 12

// manifest is BENCHMARK.json: what the driver reads to learn the command,
// the workloads and the metrics. `-manifest` prints it from the registry,
// so the file is never edited by hand.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end metrics only
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.Name, d.Unit, d.Better, nil})
	}
	return m
}

func manifestJSON() ([]byte, error) {
	data, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

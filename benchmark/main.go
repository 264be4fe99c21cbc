// Command benchmark is the repository's benchmark: six workloads, the
// end-to-end metrics a user of the system would see, and a per-layer
// ledger taken from outside the product code. See README.md.
//
// The driver's contract (BENCHMARK.json) runs one workload per process:
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output. For people:
//
//	bash benchmark/run.sh -workload all [-seed 1] [-trace 1] [-selfcheck]
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"seastar/internal/obs"
)

// rounds is how many times a run sets a workload up and measures it;
// every reported value is the median of the per-round values.
const rounds = 3

// maxRetries is how many rounds of a run may be repeated because their
// load generator ran late ("rerun once"). On the reference host a stall of
// the whole VM invalidates about one serving round in twenty, in noisy
// phases one in eight. A round that is late again is kept: see runWorkload.
const maxRetries = 1

type options struct {
	Workload  string
	Seed      int64
	Seconds   float64
	Trace     bool
	Size      string
	Out       string
	Selfcheck bool
	Manifest  bool
	// Rounds is fixed at `rounds` by main; tests run a single short round.
	Rounds int
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.Workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&o.Seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&o.Seconds, "seconds", runSeconds, "seconds measured per workload, over all rounds")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics from traced rounds, 0 the end-to-end metrics")
	flag.StringVar(&o.Size, "size", "full", "full or tiny (smoke test)")
	flag.StringVar(&o.Out, "out", "benchmark/out", "directory for trace files")
	flag.BoolVar(&o.Selfcheck, "selfcheck", false, "run two full sets and compare them against the bounds")
	flag.BoolVar(&o.Manifest, "manifest", false, "print BENCHMARK.json from the registry and exit")
	flag.Parse()
	o.Trace = trace != 0
	o.Rounds = rounds

	code, err := 0, error(nil)
	if !o.Manifest {
		err = checkManifest()
	}
	if err == nil {
		code, err = run(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// checkManifest refuses to run when BENCHMARK.json at the root of the
// checkout (the directory run.sh starts the program in) no longer says
// what the registry says: the driver reads workloads, metrics and bounds
// from the file, the program from the registry, and the package's tests,
// which also compare the two, are not part of the repository's tier-1
// command.
func checkManifest() error {
	want, err := manifestJSON()
	if err != nil {
		return err
	}
	got, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("start it with bash benchmark/run.sh, from the root of the checkout: %w", err)
	}
	if !bytes.Equal(got, want) {
		return errors.New("BENCHMARK.json differs from benchmark/registry.go; regenerate it with: bash benchmark/run.sh -manifest > BENCHMARK.json")
	}
	return nil
}

func run(o options, w io.Writer) (int, error) {
	sz, err := sizesByName(o.Size)
	if err != nil {
		return 0, err
	}
	if o.Seconds <= 0 || o.Rounds < 1 {
		return 0, fmt.Errorf("need -seconds > 0 and at least one round")
	}
	switch {
	case o.Manifest:
		data, err := manifestJSON()
		if err != nil {
			return 0, err
		}
		_, err = w.Write(data)
		return 0, err
	case o.Selfcheck:
		return selfcheck(o, w, execChild)
	case o.Workload == "all":
		set, err := runSet(o, w, execChild)
		if err != nil {
			return 0, err
		}
		return exitCode(set.failed() == 0), nil
	}
	wd := findWorkload(o.Workload)
	if wd == nil {
		return 0, fmt.Errorf("unknown workload %q", o.Workload)
	}
	res, err := runWorkload(wd, o, sz)
	if err != nil {
		return 0, err
	}
	res.print(w, o.Trace)
	line, err := json.Marshal(res.contract(o.Trace))
	if err != nil {
		return 0, err
	}
	fmt.Fprintln(w, string(line))
	// A run that printed its result exits 0, as the driver expects; failed
	// ops are in the result. -workload all and -selfcheck, the commands for
	// people, exit non-zero on any failed op.
	return 0, nil
}

func exitCode(ok bool) int {
	if ok {
		return 0
	}
	return 1
}

func sizesByName(name string) (*sizes, error) {
	switch name {
	case "full":
		return &fullSizes, nil
	case "tiny":
		return &tinySizes, nil
	}
	return nil, fmt.Errorf("unknown size %q", name)
}

// result is one workload's run: the median over rounds of every value.
type result struct {
	Workload          string
	Attempted, Failed int
	Values            map[string]float64
	Notes             []string
}

// runWorkload generates the inputs and the reference answers once, runs
// o.Rounds rounds on them and takes medians. A traced run leaves its second
// round untraced and sets the round after it against that one: both run on
// a warm process, which the first round does not.
func runWorkload(wd *workloadDef, o options, sz *sizes) (*result, error) {
	genStart := time.Now()
	in, err := wd.gen(o.Seed, sz)
	if err != nil {
		return nil, fmt.Errorf("%s: generate inputs: %w", wd.Name, err)
	}
	genS := time.Since(genStart).Seconds()

	budget := time.Duration(o.Seconds / float64(o.Rounds) * float64(time.Second))
	if wd.reference != nil {
		if err := wd.reference(&roundCtx{Workload: wd.Name, Seed: o.Seed, Sz: sz, Budget: budget}, in); err != nil {
			return nil, fmt.Errorf("%s: reference answers: %w", wd.Name, err)
		}
	}

	res := &result{Workload: wd.Name, Values: map[string]float64{}}
	perRound := map[string][]float64{}
	var untracedP50, tracedP50 float64
	var rec *recorder
	retries, lateRounds := 0, 0
	for r := 0; r < o.Rounds; r++ {
		rc := &roundCtx{Workload: wd.Name, Seed: o.Seed, Sz: sz, Budget: budget, Values: map[string]float64{}}
		if o.Trace && r != 1 {
			rc.Trace, rc.Rec = true, &recorder{}
			rec = rc.Rec
			obs.Reset()
			obs.Enable()
		}
		err := runRound(wd, rc, in)
		obs.Disable()
		var invalid *invalidRound
		if errors.As(err, &invalid) {
			// The load generator, not the system, set this round's
			// numbers: run it again, maxRetries times at most per run.
			// After that the round stands, with a note and in
			// serve.late_rounds. It is no failed op: "correct" says whether
			// the answers were right, and a host that stalls is not a wrong
			// answer. Latency counts from the due time, so a late generator
			// and a system that cannot keep up with the rate both make the
			// kept round's op_ms_p50 worse, never better, and the median over
			// rounds and the metric's bound judge that.
			if retries < maxRetries {
				retries++
				res.Notes = append(res.Notes, fmt.Sprintf("round %d repeated: %v", r+1, err))
				r--
				continue
			}
			lateRounds++
			res.Notes = append(res.Notes, fmt.Sprintf("round %d kept: %v", r+1, err))
			err = nil
		}
		if err != nil {
			return nil, fmt.Errorf("%s: round %d: %w", wd.Name, r+1, err)
		}
		res.Attempted += rc.Attempted
		res.Failed += rc.Failed
		res.Notes = append(res.Notes, rc.Notes...)
		if o.Trace && !rc.Trace {
			untracedP50 = rc.Values["op_ms_p50"]
			continue
		}
		tracedP50 = rc.Values["op_ms_p50"]
		for k, v := range rc.Values {
			perRound[k] = append(perRound[k], v)
		}
	}
	for k, vs := range perRound {
		res.Values[k] = median(vs)
	}
	for _, m := range endToEnd {
		if vs, ok := perRound[m.Name]; ok {
			res.Notes = append(res.Notes, fmt.Sprintf("%s per round: %.4g", m.Name, vs))
		}
	}
	if o.Trace {
		events, _ := obs.Events()
		path, err := writeTrace(o.Out, wd.Name, rec, events, map[string]any{
			"workload": wd.Name, "seed": o.Seed, "size": sz.Name, "cpu_model": cpuModel(),
		})
		if err != nil {
			return nil, err
		}
		res.Notes = append(res.Notes, "trace written to "+path)
		for k, v := range hostValues(sz) {
			res.Values[k] = v
		}
		res.Values["datasets.gen_s"] = genS
		res.Values["serve.late_rounds"] = float64(lateRounds)
		if untracedP50 > 0 && o.Rounds > 2 {
			res.Values["obs.trace_overhead_ratio"] = tracedP50/untracedP50 - 1
		}
	}
	return res, nil
}

// runRound runs one round from a settled heap, so that a round neither
// pays for nor benefits from the garbage of the one before.
func runRound(wd *workloadDef, rc *roundCtx, in any) error {
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()
	return wd.round(rc, in)
}

// contractLine is the object the driver reads from the last line.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contract shapes a result for the driver: every end-to-end metric of an
// untraced run, every per-layer metric of a traced one (0 where the
// workload bypasses the layer). An end-to-end value that is absent, not a
// number or not positive, and a per-layer value that is not a number, is
// written as 0 and counted as a failed op: the driver must not take it
// for a measurement.
func (r *result) contract(trace bool) contractLine {
	line := contractLine{Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, m := range metricsOf(trace) {
		v, ok := r.Values[m.Name]
		if !finite(v) || (!trace && !(ok && v > 0)) {
			line.Attempted++
			line.Failed++
			v = 0
		}
		line.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	line.Correct = line.Failed == 0
	return line
}

// parseContract decodes the result object from the last line of a run's
// standard output.
func parseContract(out []byte) (contractLine, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var line contractLine
	err := json.Unmarshal([]byte(lines[len(lines)-1]), &line)
	return line, err
}

// print lists every metric the workload reports, by name with its unit.
func (r *result) print(w io.Writer, trace bool) {
	fmt.Fprintf(w, "%s: %d ops attempted, %d failed\n", r.Workload, r.Attempted, r.Failed)
	for _, m := range metricsOf(trace) {
		if !m.on(r.Workload) {
			continue
		}
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", m.Name, r.Values[m.Name], m.Unit)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// set is one full pass over all workloads.
type set map[string]*result

func (s set) failed() int {
	n := 0
	for _, r := range s {
		n += r.Failed
	}
	return n
}

// childRunner runs one workload in contract mode and returns what it
// reported. The real one re-executes this binary, so that every workload
// starts from a fresh heap and has a VmHWM of its own; tests substitute
// an in-process one.
type childRunner func(o options, workload string, trace bool) (*result, error)

// execChild is the childRunner that starts a process.
func execChild(o options, workload string, trace bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := 0
	if trace {
		t = 1
	}
	cmd := exec.Command(self,
		"-workload", workload, "-seed", fmt.Sprint(o.Seed), "-size", o.Size, "-out", o.Out,
		"-seconds", fmt.Sprint(o.Seconds), "-trace", fmt.Sprint(t))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil && len(out) == 0 {
		return nil, fmt.Errorf("%s: child: %w", workload, err)
	}
	line, err := parseContract(out)
	if err != nil {
		return nil, fmt.Errorf("%s: child output: %w", workload, err)
	}
	r := &result{Workload: workload, Attempted: line.Attempted, Failed: line.Failed, Values: map[string]float64{}}
	for k, v := range line.Metrics {
		r.Values[k] = v.Value
	}
	return r, nil
}

// runSet runs every workload once, each in a process of its own exactly
// as the driver runs it, and with -trace 1 once more traced.
func runSet(o options, w io.Writer, child childRunner) (set, error) {
	fmt.Fprintf(w, "host: %s, %d cores, GOMAXPROCS %d, %s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	s := set{}
	for _, wd := range workloads {
		res, err := child(o, wd.Name, false)
		if err != nil {
			return nil, err
		}
		res.print(w, false)
		if o.Trace {
			traced, err := child(o, wd.Name, true)
			if err != nil {
				return nil, err
			}
			traced.print(w, true)
			res.Attempted += traced.Attempted
			res.Failed += traced.Failed
		}
		s[wd.Name] = res
	}
	return s, nil
}

// selfcheck runs two full sets back to back and prints, for every
// (end-to-end metric, workload) pair, the relative difference next to
// its bound. Any excess, or any failed op, is a non-zero exit.
func selfcheck(o options, w io.Writer, child childRunner) (int, error) {
	a, err := runSet(o, io.Discard, child)
	if err != nil {
		return 0, err
	}
	b, err := runSet(o, io.Discard, child)
	if err != nil {
		return 0, err
	}
	ok := a.failed() == 0 && b.failed() == 0
	fmt.Fprintf(w, "%-20s %-14s %12s %12s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, wd := range workloads {
		for _, m := range endToEnd {
			x, y := a[wd.Name].Values[m.Name], b[wd.Name].Values[m.Name]
			diff := math.Abs(x-y) / math.Min(x, y)
			mark := ""
			if !(diff <= m.Bound) {
				mark, ok = "  EXCEEDS", false
			}
			fmt.Fprintf(w, "%-20s %-14s %12.4f %12.4f %7.1f%% %5.0f%%%s\n",
				wd.Name, m.Name, x, y, 100*diff, 100*m.Bound, mark)
		}
	}
	fmt.Fprintf(w, "failed ops: %d and %d\n", a.failed(), b.failed())
	return exitCode(ok), nil
}

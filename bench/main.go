// Command bench is the repository's one benchmark: five named
// workloads run through the public run path (scenario.Parse → Build →
// AdvanceTo → Finish, and the run server behind net/http/httptest),
// end-to-end metrics with fixed regression bounds, and a per-layer
// ladder measured from outside the program. BENCHMARK.json at the
// repository root declares the workloads and metrics; README.md says
// why each was chosen and how to read the numbers.
//
// Usage:
//
//	go run ./bench                        all workloads, end-to-end metrics
//	go run ./bench -trace 1               all workloads, per-layer metrics
//	go run ./bench -workload flood_dense  one workload
//	go run ./bench -compare a.json b.json compare two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

// report is the result file of one invocation.
type report struct {
	Machine   machine  `json:"machine"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Trace     bool     `json:"trace"`
	Workloads []result `json:"workloads"`
}

type machine struct {
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	OSArch     string `json:"os_arch"`
}

// result is one workload's outcome. Ops counts cycles attempted; a
// failed cycle contributes to no metric.
type result struct {
	Workload  string   `json:"workload"`
	Correct   bool     `json:"correct"`
	Ops       int      `json:"ops"`
	OpsFailed int      `json:"ops_failed"`
	Problems  []string `json:"problems,omitempty"`
	Metrics   []metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		only    = fs.String("workload", "", "run one workload (default: all five)")
		seed    = fs.Int64("seed", 1, "workload seed: flows and document seeds derive from it")
		seconds = fs.Float64("seconds", 14, "measuring time per workload, after its warm-up")
		trace   = fs.Int("trace", 0, "1: traced run, prints the per-layer metrics instead of the end-to-end ones")
		out     = fs.String("out", "bench/out", "directory for result.json and trace.json")
		compare = fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(stdout, stderr, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	todo := workloads
	if *only != "" {
		w, ok := findWorkload(*only)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *only)
			return 2
		}
		todo = []workload{w}
	}

	rep := report{
		Machine: machine{
			NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
		},
		Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
	}
	var spans []span
	code := 0
	for _, w := range todo {
		res, tr, err := runWorkload(w, *seed, *seconds, rep.Trace)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if tr != nil {
			spans = append(spans, tr.spans...)
		}
		rep.Workloads = append(rep.Workloads, res)
		printResult(stdout, res, rep.Trace)
		if !res.Correct {
			code = 1
		}
	}
	name := "result.json"
	if rep.Trace {
		name = "result_trace.json"
		if err := writeJSON(*out, "trace.json", spans); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if err := writeJSON(*out, name, rep); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	// The last line of standard output is the machine-readable result
	// of the last workload run.
	last := rep.Workloads[len(rep.Workloads)-1]
	line, err := json.Marshal(contractLine(last))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return code
}

// runWorkload measures one workload and checks its outputs. With trace
// set it returns the per-layer metrics and the tracer that holds the
// spans; otherwise the end-to-end metrics.
func runWorkload(w workload, seed int64, seconds float64, trace bool) (result, *tracer, error) {
	res := result{Workload: w.name}
	v := values{}
	var tr *tracer
	var err error
	switch {
	case !trace && w.name == serveMix:
		var l serveLoad
		l, err = runServe(w, seed, seconds, nil)
		endToEndServe(v, l)
		res.Ops, res.OpsFailed, res.Problems = len(l.cycles)+l.failed, l.failed, l.problems
	case !trace:
		var doc []byte
		doc, err = document(w, seed, 0)
		if err != nil {
			break
		}
		var ref cycle
		l := runCycles(doc, seconds, nil, &ref)
		endToEndSim(v, l)
		res.Ops, res.OpsFailed, res.Problems = len(l.cycles)+l.failed, l.failed, l.problems
	default:
		tr = newTracer(w.name)
		err = traced(w, seed, seconds, tr, v, &res)
	}
	if err != nil {
		return res, nil, err
	}
	decls := endToEnd
	if trace {
		decls = perLayer
	}
	res.Metrics, err = declared(decls, v, trace)
	res.Correct = len(res.Problems) == 0 && res.OpsFailed == 0
	return res, tr, err
}

// contractLine is the single JSON object the benchmark driver reads.
func contractLine(r result) any {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]mv, len(r.Metrics))
	for _, m := range r.Metrics {
		ms[m.Name] = mv{m.Value, m.Unit}
	}
	return struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Ops, r.OpsFailed, ms}
}

func printResult(w io.Writer, r result, trace bool) {
	kind := "end-to-end, untraced"
	if trace {
		kind = "per-layer, traced"
	}
	fmt.Fprintf(w, "\n== %s (%s)  ops=%d ops_failed=%d correct=%v\n", r.Workload, kind, r.Ops, r.OpsFailed, r.Correct)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "   PROBLEM: %s\n", p)
	}
	fmt.Fprintf(w, "   %-32s %13s %-6s %13s %13s %13s %13s %5s\n", "metric", "value", "unit", "q1", "q3", "min", "max", "n")
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "   %-32s %13.6g %-6s %13.6g %13.6g %13.6g %13.6g %5d\n", m.Name, m.Value, m.Unit, m.Q1, m.Q3, m.Min, m.Max, m.N)
	}
	if !trace {
		fmt.Fprintln(w, "   value is the median over n cycles (n=1: one figure for the whole window); tail percentiles need 10 samples beyond them and are per-layer.")
	}
}

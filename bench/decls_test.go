package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesTables: BENCHMARK.json declares exactly the
// workloads and metrics the code's tables hold, in the same order.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if !slices.Equal(b.Command, []string{"go", "run", "./bench"}) || !slices.Equal(b.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", b.Command, b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in code", len(b.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, code has %s: %s", i, b.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload %s: name or why outside the limits", w.name)
		}
		seen[w.name] = true
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("declared %d+%d metrics, code has %d+%d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	check := func(d decl, name, unit, better string) {
		if d.name != name || d.unit != unit || d.better != better {
			t.Errorf("metric %s: declared (%s, %s, %s)", d.name, name, unit, better)
		}
		if !nameRE.MatchString(d.name) || seen[d.name] {
			t.Errorf("metric name %q malformed or used twice", d.name)
		}
		seen[d.name] = true
	}
	for i, d := range endToEnd {
		check(d, b.EndToEnd[i].Name, b.EndToEnd[i].Unit, b.EndToEnd[i].Better)
		if d.bound != b.EndToEnd[i].Bound || !(d.bound > 0 && d.bound <= 0.25) {
			t.Errorf("%s: bound %v, declared %v", d.name, d.bound, b.EndToEnd[i].Bound)
		}
	}
	for i, d := range perLayer {
		check(d, b.PerLayer[i].Name, b.PerLayer[i].Unit, b.PerLayer[i].Better)
	}
	if !seen["setup_s"] {
		t.Error("no setup_s")
	}
}

// TestDeclaredIsExact: no value is printed that is not declared, and no
// end-to-end metric is declared that was not measured.
func TestDeclaredIsExact(t *testing.T) {
	full := values{}
	for _, d := range endToEnd {
		full.set(d.name, 1)
	}
	ms, err := declared(endToEnd, full, false)
	if err != nil || len(ms) != len(endToEnd) {
		t.Fatalf("full set: %d metrics, %v", len(ms), err)
	}
	full.set("events_per_s", 1)
	if _, err := declared(endToEnd, full, false); err == nil {
		t.Error("an undeclared metric passed")
	}
	delete(full, "events_per_s")
	delete(full, "setup_s")
	if _, err := declared(endToEnd, full, false); err == nil {
		t.Error("a missing end-to-end metric passed")
	}
	ms, err = declared(perLayer, values{}, true)
	if err != nil || len(ms) != len(perLayer) {
		t.Errorf("per-layer zero fill: %d metrics, %v", len(ms), err)
	}
}

// TestResultNamesAreTheDeclaredSet runs the smallest workload for a
// moment through the command itself and checks the driver's line.
func TestResultNamesAreTheDeclaredSet(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", serveMix, "--seed", "3", "--seconds", "0.4", "--trace", "0", "-out", t.TempDir()}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var line struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(bytes.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", line.Correct, line.Attempted, line.Failed)
	}
	b := loadBenchmarkJSON(t)
	if len(line.Metrics) != len(b.EndToEnd) {
		t.Errorf("%d metrics printed, %d declared", len(line.Metrics), len(b.EndToEnd))
	}
	for _, d := range b.EndToEnd {
		m, ok := line.Metrics[d.Name]
		if !ok || m.Unit != d.Unit || !(m.Value > 0) {
			t.Errorf("%s: printed %+v (present=%v)", d.Name, m, ok)
		}
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The self-check drives the command in -quick mode (sizes / 20, three
// repeats): it is about the harness, not about the numbers.

type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// quickRun runs one workload and returns its printed table and parsed JSON
// line.
func quickRun(t *testing.T, workload, seed, trace, outDir string) (string, runResult) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", seed, "--seconds", "1", "--trace", trace, "--quick", "--out", outDir}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s trace=%s: exit %d\n%s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res runResult
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d\n%s", workload, res.Correct, res.Attempted, res.Failed, stderr.String())
	}
	return stdout.String(), res
}

func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != specJSON() {
		t.Fatal("BENCHMARK.json is stale: regenerate it with `bash benchmark/run.sh -spec > BENCHMARK.json`")
	}
	if len(got) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, over 64 KiB", len(got))
	}
}

func TestEveryMetricPrintedOncePerWorkload(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	out := t.TempDir()
	for _, w := range workloads {
		if raceEnabled && w.programs == nil {
			continue
		}
		for trace, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
			table, res := quickRun(t, w.name, "1", trace, out)
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%s: %d metrics in the result, %d declared", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
					t.Errorf("bad metric name or unit: %q %q", d.Name, d.Unit)
				}
				if n := strings.Count(table, "\n  "+d.Name+" "); n != 1 {
					t.Errorf("%s trace=%s: %s printed %d times", w.name, trace, d.Name, n)
				}
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%s: %s missing from the result or wrong unit %q", w.name, trace, d.Name, m.Unit)
				}
				if trace == "0" && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.name, d.Name)
				}
			}
		}
	}
}

// isCount reports whether a per-layer metric is a count read from a runtime
// snapshot (as opposed to a time, a unit cost or a ratio of times).
func isCount(d metricDef) bool {
	switch d.Unit {
	case "count", "bytes", "Mwords", "work":
		return !strings.HasPrefix(d.Name, "serve.") && !strings.HasPrefix(d.Name, "benchmark.") && !strings.HasPrefix(d.Name, "gc.cgc_")
	}
	return false
}

func TestCountsRepeatAndFollowTheSeed(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		if w.programs == nil {
			continue // serve is concurrent: its counts are not exact
		}
		_, a := quickRun(t, w.name, "1", "1", out)
		_, b := quickRun(t, w.name, "1", "1", out)
		_, c := quickRun(t, w.name, "2", "1", out)
		differs := false
		for _, d := range perLayer {
			if !isCount(d) {
				continue
			}
			if a.Metrics[d.Name].Value != b.Metrics[d.Name].Value {
				t.Errorf("%s: %s is %v then %v with one seed", w.name, d.Name, a.Metrics[d.Name].Value, b.Metrics[d.Name].Value)
			}
			if a.Metrics[d.Name].Value != c.Metrics[d.Name].Value {
				differs = true
			}
		}
		// gc-churn keeps its sizes fixed (see programs.go): its seed moves
		// the data, which no counter sees.
		if !differs && w.name != "gc-churn" {
			t.Errorf("%s: every count is the same for seeds 1 and 2", w.name)
		}
	}
}

func TestSpanFileNests(t *testing.T) {
	out := t.TempDir()
	for _, w := range []string{"mlang", "serve"} {
		if raceEnabled && w == "serve" {
			continue
		}
		quickRun(t, w, "1", "1", out)
		raw, err := os.ReadFile(filepath.Join(out, "trace-"+w+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var all []span
		if err := json.Unmarshal(raw, &all); err != nil {
			t.Fatalf("%s: span file does not parse: %v", w, err)
		}
		if len(all) == 0 {
			t.Fatalf("%s: no spans recorded", w)
		}
		children := 0
		for i, s := range all {
			if s.EndNS < s.StartNS {
				t.Fatalf("%s: span %d (%s) ends before it starts", w, i, s.Name)
			}
			if s.Parent < 0 {
				continue
			}
			children++
			p := all[s.Parent]
			if s.Parent >= i || p.Run != s.Run || s.StartNS < p.StartNS || s.EndNS > p.EndNS {
				t.Fatalf("%s: span %d (%s) is not inside its parent %d (%s)", w, i, s.Name, s.Parent, p.Name)
			}
		}
		if children == 0 {
			t.Fatalf("%s: no span has a parent", w)
		}
	}
}

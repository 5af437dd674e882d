package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ptffedrec/internal/data"
	"ptffedrec/internal/fed"
)

// tiny shrinks a workload to the tiny profile and two rounds, keeping its
// cohort, evaluation, fault and transport settings.
func tiny(w workload) workload {
	w.profile = data.Tiny.Name
	w.rounds = 2
	return w
}

// resultLine is the benchmark's last output line.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// TestEveryMetricPrintedWithUnit runs every workload untraced and traced on
// two seeds and checks that each defined metric is printed with its unit,
// both in the table and in the result line, and that every correctness check
// passed.
func TestEveryMetricPrintedWithUnit(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		for _, w := range workloads {
			w := tiny(w)
			t.Run(fmt.Sprintf("%s/seed%d", w.name, seed), func(t *testing.T) {
				for trace, defs := range [][]metricDef{endToEnd, perLayer} {
					var rep *report
					var err error
					if trace == 0 {
						rep, err = measure(io.Discard, w, seed, 1e-3, 2)
					} else {
						rep, err = traced(w, seed, 2, t.TempDir())
					}
					if err != nil {
						t.Fatalf("trace %d: %v", trace, err)
					}
					var buf bytes.Buffer
					if err := printReport(&buf, rep); err != nil {
						t.Fatalf("trace %d: %v", trace, err)
					}
					lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
					var res resultLine
					if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
						t.Fatalf("trace %d: result line: %v", trace, err)
					}
					if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
						t.Errorf("trace %d: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
					}
					if len(res.Metrics) != len(defs) {
						t.Errorf("trace %d: %d metrics, want %d", trace, len(res.Metrics), len(defs))
					}
					// Table lines read "name value unit".
					table := map[string]string{}
					for _, l := range lines[:len(lines)-1] {
						if f := strings.Fields(l); len(f) == 3 {
							table[f[0]] = f[2]
						}
					}
					for _, d := range defs {
						mv, ok := res.Metrics[d.name]
						if !ok || mv.Unit != d.unit {
							t.Errorf("trace %d: metric %s = %+v, want unit %s", trace, d.name, mv, d.unit)
						}
						if unit := table[d.name]; unit != d.unit {
							t.Errorf("trace %d: table prints %s with unit %q, want %s", trace, d.name, unit, d.unit)
						}
					}
				}
			})
		}
	}
}

// TestPerturbedHistoryFails checks that any change to a history, down to one
// ulp of one float, fails the correctness check and counts as a failure.
func TestPerturbedHistoryFails(t *testing.T) {
	ref, err := serialDrive(tiny(workloads[0]), 1, 2, newRecorder(), nil)
	if err != nil {
		t.Fatal(err)
	}
	up := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	perturb := map[string]func(h *fed.History){
		"client loss":   func(h *fed.History) { h.Rounds[1].ClientLoss = up(h.Rounds[1].ClientLoss) },
		"server loss":   func(h *fed.History) { h.Rounds[0].ServerLoss = up(h.Rounds[0].ServerLoss) },
		"dropped slot":  func(h *fed.History) { h.Rounds[0].Dropped++ },
		"upload bytes":  func(h *fed.History) { h.Rounds[1].UploadBytes++ },
		"round recall":  func(h *fed.History) { h.Rounds[0].Recall = up(h.Rounds[0].Recall) },
		"final recall":  func(h *fed.History) { h.Final.Recall = up(h.Final.Recall) },
		"final ndcg":    func(h *fed.History) { h.Final.NDCG = up(h.Final.NDCG) },
		"mean attack":   func(h *fed.History) { h.MeanAttackF1 = up(h.MeanAttackF1) },
		"missing round": func(h *fed.History) { h.Rounds = h.Rounds[:1] },
	}
	clone := func() *fed.History {
		h := *ref.history
		h.Rounds = append([]fed.RoundStats(nil), ref.history.Rounds...)
		return &h
	}

	rep := newReport(endToEnd)
	rep.check("unperturbed", &runResult{history: clone()}, ref.history)
	if !rep.correct || rep.failed != 0 {
		t.Fatalf("unperturbed copy: correct=%v failed=%d %v", rep.correct, rep.failed, rep.mismatches)
	}
	for name, f := range perturb {
		h := clone()
		f(h)
		rep := newReport(endToEnd)
		rep.check(name, &runResult{history: h}, ref.history)
		if rep.correct || rep.failed == 0 || len(rep.mismatches) != 1 {
			t.Errorf("%s: correct=%v failed=%d mismatches=%v", name, rep.correct, rep.failed, rep.mismatches)
		}
	}
}

// TestLoopbackCaps checks that the loopback harness gives the participants
// nproc client threads between them and that no participant opens more than
// connCap connections.
func TestLoopbackCaps(t *testing.T) {
	w, err := lookupWorkload("loopback-6k")
	if err != nil {
		t.Fatal(err)
	}
	w = tiny(w)
	for _, nproc := range []int{1, 2, 4} {
		if got := w.config(1, nproc).Workers * participants; got > max(nproc, participants) {
			t.Errorf("nproc %d: participants run %d client threads", nproc, got)
		}
	}
	const nproc = 4
	lb, err := runLoopback(w, 1, nproc, newRecorder())
	if err != nil {
		t.Fatal(err)
	}
	if got := lb.net.maxConns.Load(); got < 1 || got > connCap {
		t.Errorf("a participant held %d connections at once, cap %d", got, connCap)
	}
	if got := lb.net.maxInflightUploads.Load(); got < 1 || got > participants*connCap {
		t.Errorf("%d uploads in flight at once, cap %d", got, participants*connCap)
	}
	if _, failed := lb.requests(); failed != 0 {
		t.Errorf("%d failed requests", failed)
	}
}

// TestConfigSetsNoBaselineKnob pins the rule that the benchmark measures the
// production path only.
func TestConfigSetsNoBaselineKnob(t *testing.T) {
	for _, w := range workloads {
		cfg := w.config(1, 2)
		if cfg.SequentialRounds || cfg.DisperseScalar || cfg.EvalSingleUser || cfg.MapUploadStore || cfg.FullGraphRebuild {
			t.Errorf("%s sets a baseline knob: %+v", w.name, cfg)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

// TestNoExperimentsImport keeps the benchmark independent of the
// experiments harness.
func TestNoExperimentsImport(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range af.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); strings.Contains(path, "internal/experiments") {
				t.Errorf("%s imports %s", f, path)
			}
		}
	}
}

// TestBenchmarkJSONMatchesDefinitions keeps BENCHMARK.json and the Go
// definitions of workloads and metrics in step.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
	compare := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if d.desc == "" || (!bounded && d.moves == "") {
				t.Errorf("%s %s: missing description or the metric it moves", kind, d.name)
			}
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != d.bound) {
				t.Errorf("%s %d: %+v, want %+v", kind, i, g, d)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd, true)
	compare("per_layer", spec.PerLayer, perLayer, false)
}

package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef defines one reported metric. BENCHMARK.json lists the same names,
// units, directions and bounds (a test keeps the two in step).
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
	// desc says what the value is.
	desc string
	// moves names, for a per-layer metric, the end-to-end metric and the
	// workload a change to that layer should move.
	moves string
}

// endToEnd are the numbers a provider running the federation sees, reported
// per workload by an untraced run (-trace 0). The bounds sit above the spread
// (interquartile range / median) of ten seeds on a shared 2-vCPU VM: about
// 0.1 for round_s, 0.1-0.16 for setup_s, under 0.03 for peak RSS and bytes,
// and up to 0.13 for quality, which depends on the seed's dataset.
var endToEnd = []metricDef{
	{name: "round_s", unit: "s", better: "lower", bound: 0.2,
		desc: "median over repetitions of the wall-clock of Trainer.Run or Coordinator.Run / rounds, final evaluation included"},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25,
		desc: "median over repetitions of split generation + host/engine or coordinator construction + candidate cache + participant joins"},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.1,
		desc: "median over repetitions of the process VmHWM, reset before each repetition"},
	{name: "bytes_per_client_round", unit: "B", better: "lower", bound: 0.05,
		desc: "bytes in both directions / responding client slots (comm.Meter in process, Coordinator.WireBytes on loopback)"},
	{name: "recall_at_20", unit: "ratio", better: "higher", bound: 0.25,
		desc: "final server Recall@20"},
	{name: "ndcg_at_20", unit: "ratio", better: "higher", bound: 0.25,
		desc: "final server NDCG@20"},
	{name: "ok_share", unit: "ratio", better: "higher", bound: 0.01,
		desc: "1 - failed/attempted: a failure is a cohort slot lost beyond the FaultPlan's dropouts, an HTTP request that errored or was refused, or a failed correctness check"},
}

// perLayer are the metrics of single layers, reported by a traced run
// (-trace 1). Per-round values are means over the traced rounds. Transport
// metrics read 0 on in-process workloads, which have no transport.
var perLayer = []metricDef{
	{name: "data.split_s", unit: "s", better: "lower",
		desc: "data.StreamSplit", moves: "setup_s, mostly on sparse-50k"},

	{name: "client.round_ms_p50", unit: "ms", better: "lower",
		desc: "median fed.ClientHost.RunClientRound call", moves: "round_s and peak_rss_mb on dense-6k"},
	{name: "client.round_ms_p99", unit: "ms", better: "lower",
		desc: "99th percentile RunClientRound call", moves: "round_s and peak_rss_mb on dense-6k"},
	{name: "client.busy_s", unit: "s", better: "lower",
		desc: "summed RunClientRound time per round", moves: "round_s and peak_rss_mb on dense-6k"},
	{name: "client.alloc_mb", unit: "MB", better: "lower",
		desc: "bytes allocated by the client phase per round", moves: "round_s and peak_rss_mb on dense-6k"},
	{name: "mem.retained_mb_per_round", unit: "MB", better: "lower",
		desc: "growth of the post-GC live heap per round", moves: "round_s and peak_rss_mb on dense-6k"},

	{name: "engine.select_ms", unit: "ms", better: "lower",
		desc: "fed.RoundEngine.Select per round", moves: "round_s"},
	{name: "engine.close_round_s", unit: "s", better: "lower",
		desc: "RoundEngine.CloseRound per round, overlapped eval included", moves: "round_s on every workload"},
	{name: "engine.deliver_ms", unit: "ms", better: "lower",
		desc: "delivering the round's dispersals through ClientHost.Deliver", moves: "round_s"},
	{name: "engine.absorb_s", unit: "s", better: "lower",
		desc: "Phases().Absorb change per CloseRound", moves: "round_s"},
	{name: "engine.graph_s", unit: "s", better: "lower",
		desc: "Phases().GraphBuild change per CloseRound", moves: "round_s"},
	{name: "engine.server_train_s", unit: "s", better: "lower",
		desc: "Phases().ServerTrain change per CloseRound", moves: "round_s on sparse-50k"},
	{name: "engine.disperse_s", unit: "s", better: "lower",
		desc: "Phases().Disperse change per CloseRound", moves: "round_s on dense-6k"},
	{name: "engine.close_round_alloc_mb", unit: "MB", better: "lower",
		desc: "bytes allocated during CloseRound per round", moves: "round_s and peak_rss_mb"},
	{name: "engine.close_round_allocs", unit: "count", better: "lower",
		desc: "heap objects allocated during CloseRound per round", moves: "round_s"},

	{name: "models.train_batch_ms", unit: "ms", better: "lower",
		desc: "median server-model TrainBatch on one ServerBatch of the last round's uploads", moves: "round_s and peak_rss_mb on sparse-50k"},
	{name: "models.train_batch_alloc_mb", unit: "MB", better: "lower",
		desc: "bytes allocated per TrainBatch", moves: "round_s and peak_rss_mb on sparse-50k"},
	{name: "models.train_batch_allocs", unit: "count", better: "lower",
		desc: "heap objects allocated per TrainBatch", moves: "round_s and peak_rss_mb on sparse-50k"},

	{name: "graph.engine_mb", unit: "MB", better: "lower",
		desc: "Server.GraphEngineBytes after the last round", moves: "peak_rss_mb"},
	{name: "store.upload_mb", unit: "MB", better: "lower",
		desc: "Server.UploadStoreBytes after the last round", moves: "peak_rss_mb"},
	{name: "store.elig_cache_mb", unit: "MB", better: "lower",
		desc: "Server.EligCacheBytes after the last round", moves: "peak_rss_mb"},
	{name: "eval.build_s", unit: "s", better: "lower",
		desc: "building the evaluator's candidate cache", moves: "setup_s"},
	{name: "eval.rank_s", unit: "s", better: "lower",
		desc: "median RoundEngine.Evaluate call", moves: "round_s on sparse-50k, and on dense-6k where it runs every round"},
	{name: "eval.cand_cache_mb", unit: "MB", better: "lower",
		desc: "Evaluator.CacheBytes", moves: "peak_rss_mb on sparse-50k"},

	{name: "comm.up_bytes_per_client_round", unit: "B", better: "lower",
		desc: "comm.Meter upload bytes / responding client slots", moves: "bytes_per_client_round"},
	{name: "comm.down_bytes_per_client_round", unit: "B", better: "lower",
		desc: "comm.Meter dispersal bytes / responding client slots", moves: "bytes_per_client_round"},

	{name: "coord.upload_requests_per_round", unit: "count", better: "lower",
		desc: "POST /v1/upload requests per round", moves: "round_s on loopback-6k"},
	{name: "coord.upload_rtt_ms_p50", unit: "ms", better: "lower",
		desc: "median upload round trip, timed by the participant's transport", moves: "round_s on loopback-6k"},
	{name: "coord.upload_rtt_ms_p99", unit: "ms", better: "lower",
		desc: "99th percentile upload round trip", moves: "round_s on loopback-6k"},
	{name: "coord.upload_handler_ms_p50", unit: "ms", better: "lower",
		desc: "median upload handler time, from a wrapper around Coordinator.Handler", moves: "round_s on loopback-6k"},
	{name: "coord.upload_handler_ms_p99", unit: "ms", better: "lower",
		desc: "99th percentile upload handler time", moves: "round_s on loopback-6k"},
	{name: "coord.poll_wait_s", unit: "s", better: "lower",
		desc: "time a participant's long polls wait per round (waiting, not work)", moves: "round_s on loopback-6k"},
	{name: "coord.failed_requests", unit: "count", better: "lower",
		desc: "HTTP requests that errored or were refused", moves: "ok_share and round_s on loopback-6k"},
	{name: "coord.inproc_round_s", unit: "s", better: "lower",
		desc: "round_s of the same config run in process by fed.Trainer; its gap to the loopback round_s is the transport's share", moves: "round_s on loopback-6k"},

	{name: "runtime.alloc_mb", unit: "MB", better: "lower",
		desc: "bytes allocated per traced round", moves: "round_s on every workload"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower",
		desc: "GC cycles per traced round", moves: "round_s on every workload"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower",
		desc: "stop-the-world GC pause per traced round", moves: "round_s on every workload"},

	{name: "trace.round_s", unit: "s", better: "lower",
		desc: "round_s of the traced serialized in-process drive", moves: "nothing: it is the traced counterpart of round_s"},
	{name: "trace.overhead_share", unit: "ratio", better: "lower",
		desc: "trace.round_s / untraced in-process round_s - 1; on dense-6k, where the pipeline has nothing to overlap, this is the tracing overhead", moves: "nothing: it qualifies the per-layer timings"},
}

// metricSet collects one run's reported values against a definition list.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]float64, len(defs))}
}

// set records a value; naming an undefined metric is a bug in the benchmark.
func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.name == name {
			m.values[name] = v
			return
		}
	}
	panic("perfbench: undefined metric " + name)
}

// output returns every defined metric with its unit, failing if one was never
// set or is not a finite number.
func (m *metricSet) output() (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(m.defs))
	for _, d := range m.defs {
		v, ok := m.values[d.name]
		if !ok {
			return nil, fmt.Errorf("perfbench: metric %s not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("perfbench: metric %s = %v", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

const mb = 1 << 20

// median returns the middle value (mean of the middle two for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

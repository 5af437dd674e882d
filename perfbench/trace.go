package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"ptffedrec/internal/eval"
	"ptffedrec/internal/fed"
	"ptffedrec/internal/models"
	"ptffedrec/internal/par"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call. Times are nanoseconds since the recorder started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Round  int    `json:"round"` // -1 outside a round
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use; the client pool and the HTTP wrappers record from many
// goroutines.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its id.
func (r *recorder) start(name string, parent, round int) int {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Round: round, Start: now, End: -1})
	r.mu.Unlock()
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// durations returns the seconds of every closed span with the given name.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// seconds returns the duration of span id.
func (r *recorder) seconds(id int) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return float64(r.spans[id].End-r.spans[id].Start) / 1e9
}

// total returns the summed seconds of the named spans.
func (r *recorder) total(name string) float64 {
	var t float64
	for _, d := range r.durations(name) {
		t += d
	}
	return t
}

// write stores the spans as JSON lines in path.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	for _, s := range r.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("perfbench: write spans: %w", err)
	}
	return nil
}

// serialResult is one serialized in-process drive.
type serialResult struct {
	history *fed.History
	// roundS is the summed round spans plus the final evaluation, / rounds.
	roundS float64
}

// trainBatchCalls is how many times the traced run calls the server model's
// TrainBatch after the history is recorded.
const trainBatchCalls = 5

// serialDrive runs the workload's config in process through the public
// halves in the serialized order: NewClientHost and NewRoundEngine, then per
// round Select, RunClientRound on a pool of at most nproc workers, CloseRound
// (with Evaluate as its overlap when an evaluation is due) and Deliver. Its
// history is the reference every measured run is checked against. Spans go
// to rec. When layer is non-nil it also receives the per-layer metrics: memory
// statistics are read at phase boundaries, and the forced GC that measures
// the live heap runs between rounds, outside the round spans.
func serialDrive(w workload, seed uint64, nproc int, rec *recorder, layer *metricSet) (*serialResult, error) {
	cfg := w.config(seed, nproc)
	run := rec.start("run", -1, -1)
	defer rec.end(run)

	setup := rec.start("setup", run, -1)
	id := rec.start("data.split", setup, -1)
	sp, err := w.split(seed)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	id = rec.start("fed.NewClientHost", setup, -1)
	host, err := fed.NewClientHost(sp, cfg)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	id = rec.start("fed.NewRoundEngine", setup, -1)
	engine, err := fed.NewRoundEngine(sp.NumUsers, sp.NumItems, cfg)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	id = rec.start("eval.build", setup, -1)
	ev := engine.NewEvaluator(sp)
	rec.end(id)
	rec.end(setup)

	var ms runtime.MemStats
	readMem := func() runtime.MemStats {
		if layer != nil {
			runtime.ReadMemStats(&ms)
		}
		return ms
	}
	liveHeap := func() uint64 {
		if layer == nil {
			return 0
		}
		runtime.GC()
		return readMem().HeapAlloc
	}

	var (
		phases                                fed.PhaseSeconds
		clientAlloc, closeAlloc, closeMallocs uint64
		roundAlloc, gcCycles, gcPauseNs       uint64
		lastOutcomes                          []fed.ClientOutcome
		responders                            int64
		roundSecs                             float64
		liveStart                             = liveHeap()
	)
	h := &fed.History{}
	for r := 0; r < cfg.Rounds; r++ {
		m0 := readMem()
		round := rec.start("round", run, r)

		id := rec.start("engine.select", round, r)
		idx := engine.Select(r)
		rec.end(id)

		m1 := readMem()
		phase := rec.start("client.phase", round, r)
		outcomes := make([]fed.ClientOutcome, len(idx))
		par.For(len(idx), cfg.Workers, func(slot int) {
			id := rec.start("client.round", phase, r)
			outcomes[slot] = host.RunClientRound(r, idx[slot]).Outcome()
			rec.end(id)
		})
		rec.end(phase)
		m2 := readMem()

		closeID := rec.start("engine.close_round", round, r)
		var evalRes eval.Result
		var overlap func()
		withEval := cfg.EvalEvery > 0 && (r+1)%cfg.EvalEvery == 0
		if withEval {
			overlap = func() {
				id := rec.start("eval.rank", closeID, r)
				evalRes = engine.Evaluate(ev)
				rec.end(id)
			}
		}
		before := engine.Phases()
		stats, dispersals := engine.CloseRound(r, outcomes, overlap)
		after := engine.Phases()
		rec.end(closeID)
		m3 := readMem()

		id = rec.start("engine.deliver", round, r)
		for _, d := range dispersals {
			host.Deliver(d.ID, d.Preds)
		}
		rec.end(id)
		if withEval {
			stats.Recall, stats.NDCG, stats.Evaluated = evalRes.Recall, evalRes.NDCG, true
		}
		h.Rounds = append(h.Rounds, stats)
		rec.end(round)
		roundSecs += rec.seconds(round)
		m4 := readMem()

		phases.Absorb += after.Absorb - before.Absorb
		phases.GraphBuild += after.GraphBuild - before.GraphBuild
		phases.ServerTrain += after.ServerTrain - before.ServerTrain
		phases.Disperse += after.Disperse - before.Disperse
		clientAlloc += m2.TotalAlloc - m1.TotalAlloc
		closeAlloc += m3.TotalAlloc - m2.TotalAlloc
		closeMallocs += m3.Mallocs - m2.Mallocs
		roundAlloc += m4.TotalAlloc - m0.TotalAlloc
		gcCycles += uint64(m4.NumGC - m0.NumGC)
		gcPauseNs += m4.PauseTotalNs - m0.PauseTotalNs
		lastOutcomes = outcomes
		responders += int64(stats.Participants - stats.Dropped)
	}
	// Same accumulation order as fed.Trainer.Run, so the mean is bitwise
	// comparable.
	for _, rs := range h.Rounds {
		h.MeanAttackF1 += rs.AttackF1
	}
	if len(h.Rounds) > 0 {
		h.MeanAttackF1 /= float64(len(h.Rounds))
	}
	id = rec.start("eval.rank", run, cfg.Rounds)
	h.Final = engine.Evaluate(ev)
	rec.end(id)

	rounds := float64(cfg.Rounds)
	res := &serialResult{history: h, roundS: (roundSecs + rec.seconds(id)) / rounds}
	if layer == nil {
		return res, nil
	}
	liveEnd := liveHeap()

	clientMS := scale(rec.durations("client.round"), 1e3)
	layer.set("data.split_s", rec.total("data.split"))
	layer.set("client.round_ms_p50", percentile(clientMS, 50))
	layer.set("client.round_ms_p99", percentile(clientMS, 99))
	layer.set("client.busy_s", rec.total("client.round")/rounds)
	layer.set("client.alloc_mb", float64(clientAlloc)/mb/rounds)
	layer.set("mem.retained_mb_per_round", (float64(liveEnd)-float64(liveStart))/mb/rounds)

	layer.set("engine.select_ms", rec.total("engine.select")*1e3/rounds)
	layer.set("engine.close_round_s", rec.total("engine.close_round")/rounds)
	layer.set("engine.deliver_ms", rec.total("engine.deliver")*1e3/rounds)
	layer.set("engine.absorb_s", phases.Absorb/rounds)
	layer.set("engine.graph_s", phases.GraphBuild/rounds)
	layer.set("engine.server_train_s", phases.ServerTrain/rounds)
	layer.set("engine.disperse_s", phases.Disperse/rounds)
	layer.set("engine.close_round_alloc_mb", float64(closeAlloc)/mb/rounds)
	layer.set("engine.close_round_allocs", float64(closeMallocs)/rounds)

	server := engine.Server()
	layer.set("graph.engine_mb", float64(server.GraphEngineBytes())/mb)
	layer.set("store.upload_mb", float64(server.UploadStoreBytes())/mb)
	layer.set("store.elig_cache_mb", float64(server.EligCacheBytes())/mb)
	layer.set("eval.build_s", rec.total("eval.build"))
	layer.set("eval.rank_s", median(rec.durations("eval.rank")))
	layer.set("eval.cand_cache_mb", float64(ev.CacheBytes())/mb)

	meter := engine.Meter()
	layer.set("comm.up_bytes_per_client_round", float64(meter.TotalUp())/float64(max(1, responders)))
	layer.set("comm.down_bytes_per_client_round", float64(meter.TotalDown())/float64(max(1, responders)))

	layer.set("runtime.alloc_mb", float64(roundAlloc)/mb/rounds)
	layer.set("runtime.gc_cycles", float64(gcCycles)/rounds)
	layer.set("runtime.gc_pause_ms", float64(gcPauseNs)/1e6/rounds)
	layer.set("trace.round_s", res.roundS)

	batchMS, allocMB, allocs := timeTrainBatch(server.Model(), lastOutcomes, cfg.ServerBatch, rec, run)
	layer.set("models.train_batch_ms", batchMS)
	layer.set("models.train_batch_alloc_mb", allocMB)
	layer.set("models.train_batch_allocs", allocs)
	return res, nil
}

// timeTrainBatch calls the server model's TrainBatch on one ServerBatch of
// the given uploads, in slot order, and returns the median call in ms and
// the mean bytes (MB) and objects allocated per call. It trains the model
// further, so it runs only after the history is recorded.
func timeTrainBatch(m models.Recommender, outcomes []fed.ClientOutcome, batchSize int, rec *recorder, parent int) (ms, allocMB, allocs float64) {
	batch := make([]models.Sample, 0, batchSize)
fill:
	for _, o := range outcomes {
		for _, p := range o.Upload {
			if len(batch) == batchSize {
				break fill
			}
			batch = append(batch, models.Sample{User: p.User, Item: p.Item, Label: p.Score})
		}
	}
	if len(batch) == 0 {
		return 0, 0, 0
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < trainBatchCalls; i++ {
		id := rec.start("models.train_batch", parent, -1)
		m.TrainBatch(batch)
		rec.end(id)
	}
	runtime.ReadMemStats(&after)
	calls := float64(trainBatchCalls)
	return median(scale(rec.durations("models.train_batch"), 1e3)),
		float64(after.TotalAlloc-before.TotalAlloc) / mb / calls,
		float64(after.Mallocs-before.Mallocs) / calls
}

// scale multiplies every value by f.
func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

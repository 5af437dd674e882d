package experiments

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	rtmetrics "runtime/metrics"
	"time"

	"ptffedrec/internal/comm"
	"ptffedrec/internal/coord"
	"ptffedrec/internal/data"
	"ptffedrec/internal/eval"
	"ptffedrec/internal/fed"
	"ptffedrec/internal/models"
)

// ScalabilityRow is one variant of the scalability table: a named edit of the
// profile's one config, driven in process or over a loopback transport, and
// timed against the production reference (the table's first row).
type ScalabilityRow struct {
	Variant string `json:"variant"`
	Driver  string `json:"driver"` // "inproc" or "loopback"
	Workers int    `json:"workers"`

	// RoundSecs is the fastest run's wall-clock per round. In-process runs
	// time Trainer.RunRounds; loopback runs time Coordinator.Run, whose
	// final evaluation is amortised into the figure. RefSpeedup is RoundSecs
	// over the reference's: how many times faster the production path is
	// than this variant (1 on the reference row).
	RoundSecs  float64 `json:"round_secs"`
	RefSpeedup float64 `json:"ref_speedup"`

	// EvalSecs is the fastest EvaluateServer pass after the rounds, on
	// profiles that evaluate (in-process rows only); Recall/NDCG are its
	// metrics, identical on every row.
	EvalSecs float64 `json:"eval_secs,omitempty"`
	Recall   float64 `json:"recall,omitempty"`
	NDCG     float64 `json:"ndcg,omitempty"`

	// Per-phase seconds per round of the fastest run (in-process rows).
	ClientSecs      float64 `json:"client_secs,omitempty"`
	AbsorbSecs      float64 `json:"absorb_secs,omitempty"`
	GraphSecs       float64 `json:"graph_secs,omitempty"`
	ServerTrainSecs float64 `json:"server_train_secs,omitempty"`
	DisperseSecs    float64 `json:"disperse_secs,omitempty"`

	// WireBytes is the frame bytes one loopback run moves, both directions.
	WireBytes int64 `json:"wire_bytes,omitempty"`

	// PeakHeapBytes is the largest heap-object footprint (live plus not yet
	// swept) sampled every few milliseconds across this variant's runs. The
	// footprints are the components' own accounting after the fastest
	// in-process run: the upload store, the eligibility LRU and the
	// incremental graph engine. BytesPerUser is (upload store + eligibility
	// cache) / users, the per-user server state.
	PeakHeapBytes    uint64  `json:"peak_heap_bytes"`
	UploadStoreBytes int64   `json:"upload_store_bytes,omitempty"`
	EligCacheBytes   int64   `json:"elig_cache_bytes,omitempty"`
	GraphEngineBytes int64   `json:"graph_engine_bytes,omitempty"`
	BytesPerUser     float64 `json:"bytes_per_user,omitempty"`
}

// ScalabilityResult is the scalability experiment's report: every variant of
// one config, each paired with the production reference on the same host.
type ScalabilityResult struct {
	Profile        string           `json:"profile"`
	Users          int              `json:"users"`
	Items          int              `json:"items"`
	Rounds         int              `json:"rounds"`
	ClientFraction float64          `json:"client_fraction"`
	GOMAXPROCS     int              `json:"gomaxprocs"`
	CandCacheBytes int64            `json:"cand_cache_bytes,omitempty"` // the shared evaluator's candidate cache
	Rows           []ScalabilityRow `json:"rows"`
	Deterministic  bool             `json:"deterministic"` // every run's history and eval equal the reference's
}

// memoryProfileUsers is the user count at which RunScalability switches to
// the memory configuration: past it, materialising the dataset, eager
// clients, or a full candidate cache (users × items) would dominate — or
// exceed — the very footprint being measured.
const memoryProfileUsers = 200_000

// netLoopbackMaxUsers bounds the profiles the loopback variants run on: past
// it the O(users) HTTP requests per round would dominate the table's
// wall-clock.
const netLoopbackMaxUsers = 10_000

// scalabilityGroups is how many times the runner cycles the table. Each
// cycle runs the reference and then every variant once, after a forced GC,
// and every row reports its fastest cycle: interference only ever adds time.
const scalabilityGroups = 3

// runOut is what one driver run reports back to the runner.
type runOut struct {
	secs     float64 // timed wall-clock of the rounds
	rounds   []fed.RoundStats
	final    eval.Result
	evalSecs float64
	phases   fed.PhaseSeconds
	wire     int64

	upload, elig, graph int64
}

// variant is one row of the table: a name, an edit of the profile's config
// (nil keeps it) and the driver that runs it.
type variant struct {
	name   string
	driver string
	edit   func(*fed.Config)
}

// scalabilityWorkerCounts returns the worker counts to sweep: doubling steps
// up to GOMAXPROCS, always starting at 1 and, when the host is single-core,
// still including 2 so the report exercises worker-count invariance.
func scalabilityWorkerCounts() []int {
	maxProcs := runtime.GOMAXPROCS(0)
	counts := []int{1}
	for w := 2; w <= maxProcs; w *= 2 {
		counts = append(counts, w)
	}
	if counts[len(counts)-1] != maxProcs && maxProcs > 1 {
		counts = append(counts, maxProcs)
	}
	if maxProcs == 1 {
		counts = append(counts, 2)
	}
	return counts
}

// withWorkers sets every worker pool of a config to w.
func withWorkers(w int) func(*fed.Config) {
	return func(c *fed.Config) { c.Workers, c.EvalWorkers, c.TrainWorkers = w, w, w }
}

// RunScalability times the round engine as a table of variants over one
// config per profile. The first row is the production reference — the
// default schedule and engines at GOMAXPROCS workers — and every other row
// edits one thing: the worker count, or one baseline knob that swaps in a
// retained reference engine, or the transport. Every run's round history
// (and evaluation) must equal the reference's bit for bit.
//
// The small profiles use a LightGCN server and MF clients at client fraction
// 0.3 with no periodic evaluation, so the pipeline has dependency-free
// clients to overlap and every row times the same work. Profiles from
// memoryProfileUsers users up run the memory configuration instead: a
// streamed split, lazy clients, about 5000 participants a round and no
// evaluator, with the map store and the full graph rebuild as its baselines.
func RunScalability(o Options) (*ScalabilityResult, error) {
	p := data.LargeScaleSmall
	if o.Scale == ScaleFull {
		p = data.LargeScale
	}
	if len(o.ProfilesOverride) > 0 {
		p = o.ProfilesOverride[0]
	}
	memory := p.NumUsers >= memoryProfileUsers

	// MF clients keep per-client state tiny (lazy embedding rows only), which
	// is what makes tens of thousands of in-process clients feasible. The
	// LightGCN server exercises every parallel server path: the graph engine,
	// the sharded SpMM propagation and the gradient workspace engine. A large
	// server batch bounds the propagation count per round.
	maxProcs := runtime.GOMAXPROCS(0)
	cfg := fed.DefaultConfig(models.KindLightGCN)
	cfg.ClientModel = models.KindMF
	cfg.Seed = o.Seed
	cfg.Dim = 16
	cfg.Rounds = 3
	cfg.ClientEpochs = 1
	cfg.ServerEpochs = 1
	cfg.ClientBatch = 32
	cfg.ServerBatch = 8192
	cfg.EvalEvery = 0
	withWorkers(maxProcs)(&cfg)

	var sp *data.Split
	var evaluator *eval.Evaluator
	variants := []variant{{name: "production", driver: "inproc"}}
	if memory {
		o.logf("scalability: memory profile %s (%d users, streamed split)\n", p.Name, p.NumUsers)
		sp = data.StreamSplit(p, o.Seed, 0.2)
		cfg.Rounds = 2
		if o.Rounds > 0 {
			cfg.Rounds = o.Rounds
		}
		cfg.LazyClients = true
		cfg.ClientFraction = min(1, 5000/float64(p.NumUsers))
		variants = append(variants,
			variant{"map-store", "inproc", func(c *fed.Config) { c.MapUploadStore = true }},
			variant{"full-graph", "inproc", func(c *fed.Config) { c.FullGraphRebuild = true }})
	} else {
		sp = o.split(p)
		if o.Quick {
			cfg.Rounds = 2
		}
		cfg.ClientFraction = 0.3
		if o.Scale == ScaleFull {
			cfg.ClientFraction = 0.1 // keeps the 50k-user rounds near 5000 clients
		}
		// One candidate cache serves every run: it depends only on the split.
		evaluator = eval.NewEvaluator(sp)
		for _, w := range scalabilityWorkerCounts() {
			if w != maxProcs {
				variants = append(variants, variant{"production", "inproc", withWorkers(w)})
			}
		}
		variants = append(variants,
			variant{"sequential", "inproc", func(c *fed.Config) { c.SequentialRounds = true }},
			variant{"disperse-scalar", "inproc", func(c *fed.Config) { c.DisperseScalar = true }},
			variant{"eval-single-user", "inproc", func(c *fed.Config) { c.EvalSingleUser = true }},
			variant{"map-store", "inproc", func(c *fed.Config) { c.MapUploadStore = true }},
			variant{"full-graph", "inproc", func(c *fed.Config) { c.FullGraphRebuild = true }})
		if sp.NumUsers <= netLoopbackMaxUsers {
			variants = append(variants,
				variant{"net", "loopback", nil},
				variant{"net-sequential", "loopback", func(c *fed.Config) { c.SequentialRounds = true }})
		}
	}

	drive := func(v variant, vcfg fed.Config) (runOut, error) {
		if v.driver == "loopback" {
			return runLoopback(sp, vcfg, p, o.Seed, evaluator)
		}
		return runInproc(sp, vcfg, evaluator)
	}
	rows, det, err := runTable(o, variants, cfg, sp.NumUsers, drive)
	if err != nil {
		return nil, fmt.Errorf("scalability: %w", err)
	}
	res := &ScalabilityResult{
		Profile:        p.Name,
		Users:          sp.NumUsers,
		Items:          sp.NumItems,
		Rounds:         cfg.Rounds,
		ClientFraction: cfg.ClientFraction,
		GOMAXPROCS:     maxProcs,
		Rows:           rows,
		Deterministic:  det,
	}
	if evaluator != nil {
		res.CandCacheBytes = evaluator.CacheBytes()
	}
	return res, nil
}

// runTable is the one timing protocol: scalabilityGroups cycles over the
// table, the reference first in each, a forced GC before every run. Each row
// keeps its fastest run (and its fastest evaluation) and the peak heap over
// all its runs; every run's history and evaluation must equal the
// reference's.
func runTable(o Options, variants []variant, base fed.Config, users int,
	drive func(variant, fed.Config) (runOut, error)) ([]ScalabilityRow, bool, error) {
	cfgs := make([]fed.Config, len(variants))
	for i, v := range variants {
		cfgs[i] = base
		if v.edit != nil {
			v.edit(&cfgs[i])
		}
	}
	best := make([]runOut, len(variants))
	evalSecs := make([]float64, len(variants))
	peaks := make([]uint64, len(variants))
	det := true
	for g := 0; g < scalabilityGroups; g++ {
		for i, v := range variants {
			o.logf("scalability: pass %d/%d %s (%s, workers=%d)\n", g+1, scalabilityGroups, v.name, v.driver, cfgs[i].Workers)
			runtime.GC()
			stop := watchHeap()
			out, err := drive(v, cfgs[i])
			peaks[i] = max(peaks[i], stop())
			if err != nil {
				return nil, false, fmt.Errorf("%s: %w", v.name, err)
			}
			if g == 0 || out.secs < best[i].secs {
				best[i] = out
			}
			if g == 0 || out.evalSecs < evalSecs[i] {
				evalSecs[i] = out.evalSecs
			}
			if !roundsEqual(out.rounds, best[0].rounds) || out.final != best[0].final {
				det = false
			}
		}
	}

	perRound := 1 / float64(base.Rounds)
	rows := make([]ScalabilityRow, len(variants))
	for i, v := range variants {
		b := best[i]
		rows[i] = ScalabilityRow{
			Variant:          v.name,
			Driver:           v.driver,
			Workers:          cfgs[i].Workers,
			RoundSecs:        b.secs * perRound,
			EvalSecs:         evalSecs[i],
			Recall:           b.final.Recall,
			NDCG:             b.final.NDCG,
			ClientSecs:       b.phases.ClientTrain * perRound,
			AbsorbSecs:       b.phases.Absorb * perRound,
			GraphSecs:        b.phases.GraphBuild * perRound,
			ServerTrainSecs:  b.phases.ServerTrain * perRound,
			DisperseSecs:     b.phases.Disperse * perRound,
			WireBytes:        b.wire,
			PeakHeapBytes:    peaks[i],
			UploadStoreBytes: b.upload,
			EligCacheBytes:   b.elig,
			GraphEngineBytes: b.graph,
			BytesPerUser:     float64(b.upload+b.elig) / float64(users),
		}
		if rows[0].RoundSecs > 0 {
			rows[i].RefSpeedup = rows[i].RoundSecs / rows[0].RoundSecs
		}
	}
	return rows, det, nil
}

// runInproc drives one run through the in-process trainer: RunRounds timed,
// then (when the profile evaluates) one timed EvaluateServer on the shared
// candidate cache, with the config's EvalSingleUser engine choice applied.
func runInproc(sp *data.Split, cfg fed.Config, evaluator *eval.Evaluator) (runOut, error) {
	tr, err := fed.NewTrainer(sp, cfg)
	if err != nil {
		return runOut{}, err
	}
	if evaluator != nil {
		ev := *evaluator // shares the cache; the engine flag is per copy
		ev.SingleUser = cfg.EvalSingleUser
		tr.ShareEvaluator(&ev)
	}
	start := time.Now()
	out := runOut{rounds: tr.RunRounds()}
	out.secs = time.Since(start).Seconds()
	out.phases = tr.PhaseSeconds()
	if evaluator != nil {
		start = time.Now()
		out.final = tr.EvaluateServer()
		out.evalSecs = time.Since(start).Seconds()
	}
	sv := tr.Server()
	out.upload, out.elig, out.graph = sv.UploadStoreBytes(), sv.EligCacheBytes(), sv.GraphEngineBytes()
	return out, nil
}

// runLoopback drives one run through the networked coordinator on a loopback
// listener with two participants splitting the user universe. The timed
// region is Coordinator.Run, final evaluation included.
func runLoopback(sp *data.Split, cfg fed.Config, p data.Profile, seed uint64, evaluator *eval.Evaluator) (runOut, error) {
	c, err := coord.New(sp, cfg, coord.Options{Profile: p.Name, DataSeed: seed, TestFrac: 0.2})
	if err != nil {
		return runOut{}, err
	}
	c.ShareEvaluator(evaluator)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return runOut{}, err
	}
	srv := &http.Server{Handler: c.Handler()}
	go srv.Serve(ln)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Minute)
	defer cancel()
	base := "http://" + ln.Addr().String()
	half := sp.NumUsers / 2
	errCh := make(chan error, 2)
	for _, r := range [][2]int{{0, half}, {half, sp.NumUsers}} {
		pt, err := coord.Join(base, r[0], r[1], nil)
		if err != nil {
			return runOut{}, err
		}
		go func() { errCh <- pt.Run(ctx) }()
	}
	start := time.Now()
	h, err := c.Run(ctx)
	secs := time.Since(start).Seconds()
	if err != nil {
		return runOut{}, err
	}
	for i := 0; i < 2; i++ {
		if perr := <-errCh; perr != nil {
			return runOut{}, perr
		}
	}
	in, out := c.WireBytes()
	return runOut{secs: secs, rounds: h.Rounds, final: h.Final, wire: in + out}, nil
}

// watchHeap samples the heap-object footprint (live plus not yet swept, the
// runtime/metrics counterpart of MemStats.HeapAlloc) every 5 ms on its own
// goroutine; the returned stop ends sampling and reports the peak.
func watchHeap() (stop func() uint64) {
	sample := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() uint64 {
		rtmetrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	var peak uint64
	done, finished := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			peak = max(peak, read())
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(done)
		<-finished
		return max(peak, read())
	}
}

// roundsEqual compares two training traces field by field. Bitwise float
// equality is intentional: every variant promises the reference's history.
func roundsEqual(a, b []fed.RoundStats) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Print renders the table: timings, then memory. A "-" marks a column the
// row's driver or profile does not measure.
func (r *ScalabilityResult) Print(w io.Writer) {
	secs := func(v float64) string {
		if v == 0 {
			return "-"
		}
		return fmt.Sprintf("%.3f", v)
	}
	fmt.Fprintf(w, "Scalability: %s (%d users × %d items), %d rounds, client fraction %g, GOMAXPROCS=%d\n",
		r.Profile, r.Users, r.Items, r.Rounds, r.ClientFraction, r.GOMAXPROCS)
	fmt.Fprintln(w, "  secs/round (fastest of 3 runs paired with the reference; vs-ref = row / reference), eval secs/pass:")
	fmt.Fprintf(w, "  %-17s %-8s %7s %9s %7s %7s %7s %7s %7s %10s %9s %9s\n",
		"variant", "driver", "workers", "round", "vs-ref", "eval", "client", "absorb", "graph", "server-sgd", "disperse", "wire")
	for _, row := range r.Rows {
		wire := "-"
		if row.WireBytes > 0 {
			wire = comm.FormatBytes(float64(row.WireBytes))
		}
		fmt.Fprintf(w, "  %-17s %-8s %7d %9.3f %6.2fx %7s %7s %7s %7s %10s %9s %9s\n",
			row.Variant, row.Driver, row.Workers, row.RoundSecs, row.RefSpeedup, secs(row.EvalSecs),
			secs(row.ClientSecs), secs(row.AbsorbSecs), secs(row.GraphSecs), secs(row.ServerTrainSecs),
			secs(row.DisperseSecs), wire)
	}
	fmt.Fprintln(w, "  memory (peak heap over the row's runs; footprints after its fastest in-process run):")
	fmt.Fprintf(w, "  %-17s %7s %10s %13s %11s %13s %14s\n",
		"variant", "workers", "peak-heap", "upload-store", "elig-cache", "graph-engine", "server-B/user")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-17s %7d %10s %13s %11s %13s %14.1f\n",
			row.Variant, row.Workers, comm.FormatBytes(float64(row.PeakHeapBytes)),
			comm.FormatBytes(float64(row.UploadStoreBytes)), comm.FormatBytes(float64(row.EligCacheBytes)),
			comm.FormatBytes(float64(row.GraphEngineBytes)), row.BytesPerUser)
	}
	if r.CandCacheBytes > 0 {
		fmt.Fprintf(w, "  shared candidate cache: %s; recall@20=%.4f ndcg@20=%.4f\n",
			comm.FormatBytes(float64(r.CandCacheBytes)), r.Rows[0].Recall, r.Rows[0].NDCG)
	}
	fmt.Fprintf(w, "  every variant's history identical to the reference: %v\n", r.Deterministic)
}

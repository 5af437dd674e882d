package fed

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"ptffedrec/internal/comm"
	"ptffedrec/internal/graph"
	"ptffedrec/internal/models"
	"ptffedrec/internal/rng"
	"ptffedrec/internal/tensor"
)

// requireSameCSR compares two CSR matrices with bit-level value equality —
// the incremental graph engine's contract against the full rebuild.
func requireSameCSR(t *testing.T, label string, a, b *tensor.CSR) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols || a.NNZ() != b.NNZ() {
		t.Fatalf("%s: shape/nnz %dx%d/%d vs %dx%d/%d",
			label, a.Rows, a.Cols, a.NNZ(), b.Rows, b.Cols, b.NNZ())
	}
	for r := 0; r <= a.Rows; r++ {
		if a.RowPtr[r] != b.RowPtr[r] {
			t.Fatalf("%s: RowPtr[%d] = %d vs %d", label, r, a.RowPtr[r], b.RowPtr[r])
		}
	}
	for i := range a.Val {
		if a.ColIdx[i] != b.ColIdx[i] || math.Float64bits(a.Val[i]) != math.Float64bits(b.Val[i]) {
			t.Fatalf("%s: entry %d = (%d,%x) vs (%d,%x)",
				label, i, a.ColIdx[i], a.Val[i], b.ColIdx[i], b.Val[i])
		}
	}
}

// fullAdjFromStore rebuilds the bipartite graph from the server's entire
// upload store from scratch — the reference the incremental engine must
// reproduce bitwise.
func fullAdjFromStore(sv *Server, workers int) (*tensor.CSR, *tensor.CSR) {
	users, off, slab := sv.collectEdges(workers)
	g := graph.NewBipartite(sv.numUsers, sv.numItems)
	for i := range users {
		for _, e := range slab[off[i]:off[i+1]] {
			g.AddEdge(e.User, e.Item, e.Weight)
		}
	}
	return g.NormalizedAdjPar(workers), g.NormalizedAdjSelfPar(workers)
}

// checkIncMatchesFull asserts the server's maintained adjacency (both
// operators) bitwise-equals the from-scratch build of the current store.
func checkIncMatchesFull(t *testing.T, label string, sv *Server, workers int) {
	t.Helper()
	if sv.inc == nil {
		t.Fatalf("%s: incremental engine not engaged", label)
	}
	fullAdj, fullSelf := fullAdjFromStore(sv, workers)
	requireSameCSR(t, label+"/adj", fullAdj, sv.inc.AdjInto(nil, workers))
	requireSameCSR(t, label+"/adj+I", fullSelf, sv.inc.AdjSelfInto(nil, workers))
}

// TestIncrementalAdjacencyMatchesFull drives servers through randomized
// partial-participation absorb/rebuild sequences — users re-uploading,
// batches from a handful of users up to everyone, both soft-positive rules —
// and requires the maintained adjacency to bitwise-equal a from-scratch
// NormalizedAdjPar build after every round.
func TestIncrementalAdjacencyMatchesFull(t *testing.T) {
	const numUsers, numItems = 300, 80
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"threshold", func(c *Config) { c.GraphThreshold = 0.4 }},
		{"topfrac", func(c *Config) { c.GraphTopFrac = 0.3 }},
	} {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				sv := storeTestServer(t, numUsers, numItems, func(c *Config) {
					c.ServerModel = models.KindLightGCN
					tc.mutate(c)
				})
				s := rng.New(17).Derive("incadj")
				rounds := 8
				if testing.Short() {
					rounds = 4
				}
				for r := 0; r < rounds; r++ {
					n := 1 + s.Intn(numUsers)
					uploads := make([][]comm.Prediction, 0, n)
					for _, u := range s.SampleInts(numUsers, n) {
						uploads = append(uploads, makeUpload(u, 1+s.Intn(14), numItems, s))
					}
					sv.absorb(uploads, workers)
					sv.rebuildGraph(workers)
					checkIncMatchesFull(t, fmt.Sprintf("round %d", r), sv, workers)
				}
			})
		}
	}
}

// TestGraphRebuildInvariance is the end-to-end pin demanded by the graph
// engine's contract: for every server model kind, dispersal ablation arm,
// and worker count, training with the incremental graph path reproduces the
// Config.FullGraphRebuild baseline's History bit for bit.
func TestGraphRebuildInvariance(t *testing.T) {
	kinds := []models.Kind{models.KindMF, models.KindNeuMF, models.KindNGCF, models.KindLightGCN}
	arms := []DisperseMode{DisperseConfHard, DisperseNoHard, DisperseNoConf, DisperseAllRandom}
	workerCounts := []int{1, 2, 8}
	if testing.Short() {
		kinds = []models.Kind{models.KindNGCF, models.KindLightGCN}
		arms = []DisperseMode{DisperseConfHard, DisperseAllRandom}
		workerCounts = []int{1, 8}
	}
	for _, server := range kinds {
		for _, arm := range arms {
			cfg := fastConfig(server)
			cfg.Rounds = 2
			cfg.EvalEvery = 1
			cfg.Disperse = arm
			for _, workers := range workerCounts {
				cfg.Workers, cfg.EvalWorkers = workers, workers
				cfg.FullGraphRebuild = false
				incr := runHistory(t, cfg)
				cfg.FullGraphRebuild = true
				requireEqualHistories(t, fmt.Sprintf("%s/%s/workers=%d", server, arm, workers),
					incr, runHistory(t, cfg))
			}
		}
	}
}

// TestRunRoundEvalSequentialFallback pins satellite behaviour of the
// GOMAXPROCS gate: with one schedulable thread RunRoundEval runs eval
// sequentially after dispersal, and the History is bitwise-identical to the
// overlapped run (which in turn equals RunRound + EvaluateServer).
func TestRunRoundEvalSequentialFallback(t *testing.T) {
	cfg := fastConfig(models.KindLightGCN)
	cfg.Rounds = 2
	cfg.EvalEvery = 1
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)

	runtime.GOMAXPROCS(2)
	overlapped := runHistory(t, cfg)

	runtime.GOMAXPROCS(1)
	tr, err := NewTrainer(tinySplit(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sequential, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	requireEqualHistories(t, "sequential-eval fallback", overlapped, sequential)
	ph := tr.PhaseSeconds()
	if ph.Eval <= 0 || ph.DisperseEvalWall <= 0 {
		t.Fatalf("sequential fallback lost phase accounting: eval=%v wall=%v", ph.Eval, ph.DisperseEvalWall)
	}
	if ph.DisperseEvalWall < ph.Eval {
		t.Fatalf("sequential wall %v must cover eval %v", ph.DisperseEvalWall, ph.Eval)
	}
}

// FuzzGraphRebuild feeds randomized absorb/rebuild sequences (participation
// 1 user to everyone, re-uploads, both soft-positive rules, fuzzed worker
// counts) through the server and asserts the incremental adjacency
// bitwise-equals the from-scratch build every round.
func FuzzGraphRebuild(f *testing.F) {
	f.Add(uint64(1), uint8(3), false)
	f.Add(uint64(77), uint8(5), true)
	f.Add(uint64(123456), uint8(1), false)
	f.Fuzz(func(t *testing.T, seed uint64, nRounds uint8, topFrac bool) {
		const numUsers, numItems = 80, 30
		sv := storeTestServer(t, numUsers, numItems, func(c *Config) {
			c.ServerModel = models.KindLightGCN
			if topFrac {
				c.GraphTopFrac = 0.4
			} else {
				c.GraphThreshold = 0.3
			}
		})
		s := rng.New(seed).Derive("fuzz-graph")
		workers := 1 + s.Intn(8)
		rounds := int(nRounds%5) + 1
		for r := 0; r < rounds; r++ {
			n := 1 + s.Intn(numUsers)
			uploads := make([][]comm.Prediction, 0, n)
			for _, u := range s.SampleInts(numUsers, n) {
				uploads = append(uploads, makeUpload(u, 1+s.Intn(10), numItems, s))
			}
			sv.absorb(uploads, workers)
			sv.rebuildGraph(workers)
			checkIncMatchesFull(t, fmt.Sprintf("round %d", r), sv, workers)
		}
	})
}

// rebuildBenchServer builds a warmed graph server over 600 users with 200
// stored uploads plus a cycle of small re-upload batches — the steady
// partial-participation shape (1% of users change per round).
func rebuildBenchServer(b *testing.B, full bool) (*Server, [][][]comm.Prediction) {
	b.Helper()
	const numUsers, numItems = 600, 150
	sv := storeTestServer(b, numUsers, numItems, func(c *Config) {
		c.ServerModel = models.KindLightGCN
		c.GraphThreshold = 0.4
		c.FullGraphRebuild = full
	})
	s := rng.New(21).Derive("bench-rebuild")
	seedUploads := make([][]comm.Prediction, 0, 200)
	for _, u := range s.SampleInts(numUsers, 200) {
		seedUploads = append(seedUploads, makeUpload(u, 4+s.Intn(12), numItems, s))
	}
	sv.absorb(seedUploads, 1)
	sv.rebuildGraph(1)
	batches := make([][][]comm.Prediction, 8)
	for i := range batches {
		batch := make([][]comm.Prediction, 0, 6)
		for _, u := range s.SampleInts(numUsers, 6) {
			batch = append(batch, makeUpload(u, 4+s.Intn(12), numItems, s))
		}
		batches[i] = batch
	}
	return sv, batches
}

// BenchmarkRebuildGraph measures one steady-state graph rebuild after a 1%
// re-upload round, full path vs incremental engine. The -benchmem numbers
// are the regression pin: the incremental path must not scale allocations
// with the store size.
func BenchmarkRebuildGraph(b *testing.B) {
	for _, mode := range []struct {
		name string
		full bool
	}{{"full", true}, {"incremental", false}} {
		b.Run(mode.name, func(b *testing.B) {
			sv, batches := rebuildBenchServer(b, mode.full)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sv.absorb(batches[i%len(batches)], 1)
				sv.rebuildGraph(1)
			}
		})
	}
}

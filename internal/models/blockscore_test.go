package models

import (
	"testing"

	"ptffedrec/internal/graph"
	"ptffedrec/internal/rng"
)

// blockConfig is large enough that NeuMF's batched scoring crosses several
// scoreChunkSize boundaries.
func blockConfig() Config {
	return Config{NumUsers: 5, NumItems: 3*scoreChunkSize + 17, Dim: 4, LR: 0.01, Layers: 2, Seed: 11}
}

// blockGraph wires every user to a spread of items so propagation is
// non-trivial for the graph models.
func blockGraph(cfg Config) *graph.Bipartite {
	g := graph.NewBipartite(cfg.NumUsers, cfg.NumItems)
	s := rng.New(3)
	for u := 0; u < cfg.NumUsers; u++ {
		for k := 0; k < 40; k++ {
			g.AddEdge(u, s.Intn(cfg.NumItems), 1)
		}
	}
	return g
}

// blockModel builds and briefly trains a model of the given kind on the
// block-scoring universe.
func blockModel(t testing.TB, kind Kind, lazy bool) Recommender {
	t.Helper()
	cfg := blockConfig()
	cfg.Lazy = lazy
	m, err := New(kind, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if gm, ok := m.(GraphRecommender); ok {
		gm.SetGraph(blockGraph(cfg))
	}
	s := rng.New(9)
	batch := make([]Sample, 64)
	for i := range batch {
		batch[i] = Sample{
			User:  s.Intn(cfg.NumUsers),
			Item:  s.Intn(cfg.NumItems),
			Label: float64(s.Intn(2)),
		}
	}
	for e := 0; e < 3; e++ {
		m.TrainBatch(batch)
	}
	return m
}

// raggedLists exercises candidate lists of every awkward size: empty, single,
// exactly one chunk, one element either side of a chunk boundary, and the
// full catalogue.
func raggedLists(numItems int) [][]int {
	sizes := []int{0, 1, 2, scoreChunkSize - 1, scoreChunkSize, scoreChunkSize + 1,
		2*scoreChunkSize + 5, numItems}
	s := rng.New(17)
	lists := make([][]int, 0, len(sizes))
	for _, n := range sizes {
		if n > numItems {
			n = numItems
		}
		items := make([]int, n)
		for i := range items {
			items[i] = s.Intn(numItems)
		}
		lists = append(lists, items)
	}
	return lists
}

// refScores is the per-item reference the block-scoring pins compare
// against: the per-item Score for MF, NGCF and LightGCN, and the training
// forward for NeuMF, whose Score itself goes through the block path.
func refScores(m Recommender, u int, items []int) []float64 {
	if nm, ok := m.(*NeuMF); ok {
		if len(items) == 0 {
			return nil
		}
		batch := make([]Sample, len(items))
		for i, v := range items {
			batch[i] = Sample{User: u, Item: v}
		}
		_, _, _, preds := nm.forward(batch)
		return preds
	}
	out := make([]float64, len(items))
	for i, v := range items {
		out[i] = m.Score(u, v)
	}
	return out
}

// TestScoreBlockMatchesScalar pins the block scoring engine's contract for
// every model kind: ScoreProbsInto must be bitwise-identical to the per-item
// reference for any candidate list.
func TestScoreBlockMatchesScalar(t *testing.T) {
	for _, kind := range []Kind{KindMF, KindNeuMF, KindNGCF, KindLightGCN} {
		m := blockModel(t, kind, false)
		for _, items := range raggedLists(blockConfig().NumItems) {
			for u := 0; u < blockConfig().NumUsers; u++ {
				want := refScores(m, u, items)
				got := make([]float64, len(items))
				ScoreProbsInto(m, got, u, items)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: u=%d |items|=%d: block score[%d]=%v, scalar=%v",
							kind, u, len(items), i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestScoreBlockLazyFallback pins the lazy-table path: client-style models
// (lazy embedding rows) must produce the per-item scores through the block
// path.
func TestScoreBlockLazyFallback(t *testing.T) {
	for _, kind := range []Kind{KindMF, KindNeuMF} {
		m := blockModel(t, kind, true)
		items := raggedLists(blockConfig().NumItems)[6]
		want := refScores(m, 0, items)
		got := make([]float64, len(items))
		ScoreProbsInto(m, got, 0, items)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s lazy: block score[%d]=%v, scalar=%v", kind, i, got[i], want[i])
			}
		}
	}
}

// TestScoreBlockRejectsBadDst pins the dst-length contract.
func TestScoreBlockRejectsBadDst(t *testing.T) {
	m := blockModel(t, KindMF, false)
	defer func() {
		if recover() == nil {
			t.Fatal("short dst accepted")
		}
	}()
	m.ScoreBlockLogitsInto(make([]float64, 2), 0, []int{0, 1, 2})
}

// BenchmarkScoring compares per-item Score calls with the block engine on a
// full-catalogue candidate list, per model kind.
func BenchmarkScoring(b *testing.B) {
	for _, kind := range []Kind{KindMF, KindNeuMF, KindNGCF, KindLightGCN} {
		m := blockModel(b, kind, false)
		if w, ok := m.(interface{ WarmScoring() }); ok {
			w.WarmScoring()
		}
		items := make([]int, blockConfig().NumItems)
		for i := range items {
			items[i] = i
		}
		dst := make([]float64, len(items))
		b.Run(string(kind)+"/per-item", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				u := i % blockConfig().NumUsers
				for j, v := range items {
					dst[j] = m.Score(u, v)
				}
			}
		})
		b.Run(string(kind)+"/block", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ScoreProbsInto(m, dst, i%blockConfig().NumUsers, items)
			}
		})
	}
}

// FuzzScoreBlockRagged fuzzes ragged candidate-list shapes (length, item
// skew, user) against the per-item reference for the two model families
// with distinct batched implementations: MF's fused GEMV and NeuMF's chunked
// MLP forward.
func FuzzScoreBlockRagged(f *testing.F) {
	f.Add(uint64(1), uint(3), uint(0))
	f.Add(uint64(42), uint(scoreChunkSize), uint(1))
	f.Add(uint64(7), uint(2*scoreChunkSize+3), uint(4))
	mf := blockModel(f, KindMF, false)
	neumf := blockModel(f, KindNeuMF, false)
	numItems := blockConfig().NumItems
	numUsers := blockConfig().NumUsers
	f.Fuzz(func(t *testing.T, seed uint64, n, u uint) {
		if n > uint(2*numItems) {
			n = uint(2 * numItems)
		}
		s := rng.New(seed)
		items := make([]int, n)
		for i := range items {
			items[i] = s.Intn(numItems)
		}
		user := int(u % uint(numUsers))
		for _, m := range []Recommender{mf, neumf} {
			want := refScores(m, user, items)
			got := make([]float64, len(items))
			ScoreProbsInto(m, got, user, items)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: score[%d]=%v, scalar=%v", m.Name(), i, got[i], want[i])
				}
			}
		}
	})
}

package models

import (
	"testing"

	"ptffedrec/internal/graph"
	"ptffedrec/internal/nn"
	"ptffedrec/internal/rng"
	"ptffedrec/internal/tensor"
)

// multiBlockFixture builds a trained model of the given kind over a small
// random universe (graph kinds get a random bipartite graph).
func multiBlockFixture(t *testing.T, kind Kind, lazy bool) Recommender {
	t.Helper()
	cfg := DefaultConfig(23, 57)
	cfg.Dim = 6
	cfg.Layers = 2
	cfg.Seed = 11
	cfg.Lazy = lazy
	m, err := New(kind, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(99).Derive("fixture")
	if gm, ok := m.(GraphRecommender); ok {
		g := graph.NewBipartite(cfg.NumUsers, cfg.NumItems)
		for u := 0; u < cfg.NumUsers; u++ {
			for _, v := range s.SampleInts(cfg.NumItems, 5) {
				g.AddEdge(u, v, 0.3+s.Float64()*0.7)
			}
		}
		gm.SetGraph(g)
	}
	var batch []Sample
	for i := 0; i < 200; i++ {
		batch = append(batch, Sample{User: s.Intn(cfg.NumUsers), Item: s.Intn(cfg.NumItems), Label: s.Float64()})
	}
	m.TrainBatch(batch)
	return m
}

// TestScoreUsersBlockMatchesScalar pins the multi-user half of the
// BlockScorer contract for every model kind: each row of the batched
// user-block logit matrix, through the sigmoid, is bitwise-identical to the
// per-item reference, for batch sizes covering the GEMM kernel's interleaved
// quad path and its remainder tail.
func TestScoreUsersBlockMatchesScalar(t *testing.T) {
	kinds := []Kind{KindMF, KindNeuMF, KindNGCF, KindLightGCN}
	s := rng.New(5).Derive("batch")
	for _, kind := range kinds {
		m := multiBlockFixture(t, kind, false)
		for _, nUsers := range []int{1, 3, 4, 7} {
			users := s.SampleInts(23, nUsers)
			items := s.SampleInts(57, 1+s.Intn(57))
			requireUsersBlockMatchesRef(t, string(kind), m, users, items)
		}
	}
}

// requireUsersBlockMatchesRef scores users × items through
// ScoreUsersBlockLogitsInto and checks every σ(logit) against refScores.
func requireUsersBlockMatchesRef(t *testing.T, label string, m Recommender, users, items []int) {
	t.Helper()
	dst := tensor.New(len(users), len(items))
	m.ScoreUsersBlockLogitsInto(dst, users, items)
	for i, u := range users {
		want := refScores(m, u, items)
		for j := range want {
			if got := nn.Sigmoid(dst.At(i, j)); got != want[j] {
				t.Fatalf("%s users=%d: σ(dst[%d][%d]) = %v, want %v (user %d item %d)",
					label, len(users), i, j, got, want[j], u, items[j])
			}
		}
	}
}

// TestScorePairsMatchesScalar pins the ragged half of the contract for every
// model kind: pair scores are bitwise-identical to the per-item reference,
// across pair counts covering the interleaved quad path, its tail, and
// NeuMF's chunk boundaries.
func TestScorePairsMatchesScalar(t *testing.T) {
	s := rng.New(17).Derive("pairs")
	for _, kind := range []Kind{KindMF, KindNeuMF, KindNGCF, KindLightGCN} {
		m := multiBlockFixture(t, kind, false)
		for _, n := range []int{1, 3, 4, 9, 300} {
			users := make([]int, n)
			items := make([]int, n)
			for i := range users {
				users[i] = s.Intn(23)
				items[i] = s.Intn(57)
			}
			dst := make([]float64, n)
			m.ScorePairsInto(dst, users, items)
			for p := range users {
				if want := refScores(m, users[p], items[p:p+1])[0]; dst[p] != want {
					t.Fatalf("%s n=%d: pair %d = %v, scalar %v (user %d item %d)",
						kind, n, p, dst[p], want, users[p], items[p])
				}
			}
		}
	}
}

// TestScoreUsersBlockLazyFallback pins the lazy-table fallback: models whose
// embedding tables materialise rows on read still satisfy the contract
// through the per-user path.
func TestScoreUsersBlockLazyFallback(t *testing.T) {
	m := multiBlockFixture(t, KindMF, true)
	requireUsersBlockMatchesRef(t, "lazy MF", m, []int{0, 3, 7, 7, 12, 22}, []int{0, 5, 9, 31, 56})
}

// BenchmarkMultiUserScoring compares per-user block scoring with the
// multi-user gather-GEMM engine on a 16-user batch over a full-catalogue
// candidate block — the dispersal engine's hard-half shape. The gap is pure
// kernel: the GEMM's interleaved accumulators and shared candidate-row loads
// against one GEMV per user.
func BenchmarkMultiUserScoring(b *testing.B) {
	for _, kind := range []Kind{KindMF, KindLightGCN, KindNGCF} {
		m := blockModel(b, kind, false)
		if w, ok := m.(interface{ WarmScoring() }); ok {
			w.WarmScoring()
		}
		numUsers := blockConfig().NumUsers
		items := make([]int, blockConfig().NumItems)
		for i := range items {
			items[i] = i
		}
		users := make([]int, 16)
		for i := range users {
			users[i] = i % numUsers
		}
		dst := tensor.New(len(users), len(items))
		b.Run(string(kind)+"/per-user", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for r, u := range users {
					m.ScoreBlockLogitsInto(dst.Row(r), u, items)
				}
			}
		})
		b.Run(string(kind)+"/multi-user", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.ScoreUsersBlockLogitsInto(dst, users, items)
			}
		})
	}
}

// TestScoreUsersBlockEmptyItems pins the zero-item edge for every kind.
func TestScoreUsersBlockEmptyItems(t *testing.T) {
	for _, kind := range []Kind{KindMF, KindNeuMF, KindNGCF, KindLightGCN} {
		m := multiBlockFixture(t, kind, false)
		dst := tensor.New(2, 0)
		m.ScoreUsersBlockLogitsInto(dst, []int{0, 1}, nil) // must not panic
	}
}

package fed

import (
	"testing"

	"ptffedrec/internal/graph"
	"ptffedrec/internal/models"
	"ptffedrec/internal/tensor"
)

// scalarModel wraps a server model so every block-contract call is answered
// one (user, item) pair at a time through the wrapped model's single-user
// logit kernel, while forwarding the extensions the round engine relies on
// (warm-up). A history run through it pins that batching never changes
// results.
type scalarModel struct {
	m models.Recommender
}

func (s *scalarModel) Name() string                         { return s.m.Name() }
func (s *scalarModel) NumParams() int                       { return s.m.NumParams() }
func (s *scalarModel) TrainBatch(b []models.Sample) float64 { return s.m.TrainBatch(b) }
func (s *scalarModel) Score(u, v int) float64               { return s.m.Score(u, v) }
func (s *scalarModel) ScoreItems(u int, items []int) []float64 {
	dst := make([]float64, len(items))
	models.ScoreProbsInto(s, dst, u, items)
	return dst
}
func (s *scalarModel) ScoreBlockLogitsInto(dst []float64, u int, items []int) {
	for i := range items {
		s.m.ScoreBlockLogitsInto(dst[i:i+1], u, items[i:i+1])
	}
}
func (s *scalarModel) ScoreUsersBlockLogitsInto(dst *tensor.Matrix, users []int, items []int) {
	for r, u := range users {
		s.ScoreBlockLogitsInto(dst.Row(r), u, items)
	}
}
func (s *scalarModel) ScorePairsInto(dst []float64, users []int, items []int) {
	for p, u := range users {
		models.ScoreProbsInto(s.m, dst[p:p+1], u, items[p:p+1])
	}
}
func (s *scalarModel) WarmScoring() {
	if w, ok := s.m.(models.Warmer); ok {
		w.WarmScoring()
	}
}

// scalarGraphModel additionally forwards SetGraph for graph server models.
type scalarGraphModel struct {
	scalarModel
}

func (s *scalarGraphModel) SetGraph(g *graph.Bipartite) {
	s.m.(models.GraphRecommender).SetGraph(g)
}

// forceScalar replaces the trainer's server model with a wrapper that scores
// one (user, item) pair per kernel call.
func forceScalar(tr *Trainer) {
	m := tr.server.model
	if _, ok := m.(models.GraphRecommender); ok {
		tr.server.model = &scalarGraphModel{scalarModel{m}}
		return
	}
	tr.server.model = &scalarModel{m}
}

// TestHistoryInvariantBatchedVsScalar pins the batched scoring engine's
// protocol-level contract: dispersal plans (and through them the entire
// training trace) and eval metrics are bitwise-identical whether the server
// scores whole blocks or one pair per kernel call, for every server model
// kind and several worker counts.
func TestHistoryInvariantBatchedVsScalar(t *testing.T) {
	kinds := []models.Kind{models.KindMF, models.KindNeuMF, models.KindLightGCN, models.KindNGCF}
	if testing.Short() {
		kinds = []models.Kind{models.KindNeuMF, models.KindLightGCN}
	}
	sp := tinySplit(t)
	for _, server := range kinds {
		cfg := fastConfig(server)
		cfg.Rounds = 2
		cfg.EvalEvery = 1

		ref, err := NewTrainer(sp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		forceScalar(ref)
		refHist, err := ref.Run()
		if err != nil {
			t.Fatal(err)
		}

		for _, workers := range []int{1, 2, 8} {
			wcfg := cfg
			wcfg.Workers, wcfg.EvalWorkers = workers, workers
			tr, err := NewTrainer(sp, wcfg)
			if err != nil {
				t.Fatal(err)
			}
			h, err := tr.Run()
			if err != nil {
				t.Fatal(err)
			}
			requireEqualHistories(t, string(server)+" batched", refHist, h)
		}
	}
}

// TestRunRoundEvalMatchesSequential pins the overlap's determinism: running
// the evaluation concurrently with dispersal must produce the same round
// trace and the same metrics as dispersing first and evaluating after.
func TestRunRoundEvalMatchesSequential(t *testing.T) {
	sp := tinySplit(t)
	for _, server := range []models.Kind{models.KindNeuMF, models.KindLightGCN} {
		cfg := fastConfig(server)
		cfg.Rounds = 3

		a, err := NewTrainer(sp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewTrainer(sp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < cfg.Rounds; round++ {
			sa := a.RunRound(round)
			resA := a.EvaluateServer()
			sb, resB := b.RunRoundEval(round)
			if resA != resB {
				t.Fatalf("%s round %d: overlapped eval %+v != sequential %+v", server, round, resB, resA)
			}
			sa.Recall, sa.NDCG, sa.Evaluated = resA.Recall, resA.NDCG, true
			if sa != sb {
				t.Fatalf("%s round %d: overlapped stats %+v != sequential %+v", server, round, sb, sa)
			}
		}
		if p := b.PhaseSeconds(); p.Eval <= 0 || p.DisperseEvalWall <= 0 {
			t.Fatalf("%s: overlapped phases not recorded: %+v", server, p)
		}
	}
}

package eval

import (
	"testing"

	"ptffedrec/internal/data"
	"ptffedrec/internal/models"
	"ptffedrec/internal/rng"
)

// scalarOnly hides a model's block contract so Ranking treats it as a plain
// Scorer — a ScoreItems vector per user, selected with metrics.TopKInto —
// while keeping the warm extension.
type scalarOnly struct {
	m models.Recommender
}

func (s scalarOnly) ScoreItems(u int, items []int) []float64 {
	return s.m.ScoreItems(u, items)
}

func (s scalarOnly) WarmScoring() {
	if w, ok := s.m.(models.Warmer); ok {
		w.WarmScoring()
	}
}

// TestRankingBatchedMatchesScalar pins the engine-level guarantee: Results
// are bitwise-identical whether Ranking drives the block contract or ranks a
// plain Scorer's ScoreItems vector, for every model kind and worker count.
func TestRankingBatchedMatchesScalar(t *testing.T) {
	d := data.Generate(data.Tiny, 11)
	sp := d.Split(rng.New(2), 0.2)
	for _, kind := range []models.Kind{models.KindMF, models.KindNeuMF, models.KindLightGCN, models.KindNGCF} {
		m := trainedModel(t, kind, sp)
		ref := RankingWorkers(scalarOnly{m}, sp, 20, 1)
		if ref.Users == 0 {
			t.Fatalf("%s: no users evaluated", kind)
		}
		for _, workers := range []int{1, 2, 8} {
			if got := RankingWorkers(m, sp, 20, workers); got != ref {
				t.Fatalf("%s: batched workers=%d %+v != scalar %+v", kind, workers, got, ref)
			}
			if got := RankingWorkers(scalarOnly{m}, sp, 20, workers); got != ref {
				t.Fatalf("%s: scalar workers=%d %+v != scalar workers=1 %+v", kind, workers, got, ref)
			}
		}
	}
}

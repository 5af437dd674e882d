package eval

import (
	"testing"

	"ptffedrec/internal/data"
	"ptffedrec/internal/models"
	"ptffedrec/internal/rng"
)

// BenchmarkEvalRanking times the evaluation engines head to head on one
// trained LightGCN model over the 6000-user scalability profile, all on one
// worker:
//
//   - batched: the production multi-user logit engine;
//   - single-user: one fused block-score + bounded-heap selection per user;
//   - per-item: the block contract hidden, so each user's full ScoreItems
//     vector is selected with a bounded heap (the path of ScorerFunc
//     adapters);
//   - sort: the full-sort oracle (full ScoreItems vector, stable sort).
//
// sort and per-item against single-user are what chunk-streamed top-K
// selection buys, and single-user against batched what user batching buys.
// Every side must return the same Result.
func BenchmarkEvalRanking(b *testing.B) {
	sp := data.Generate(data.LargeScaleSmall, 1).Split(rng.New(2), 0.2)
	m := trainedModel(b, models.KindLightGCN, sp)
	e := NewEvaluator(sp)
	want := e.Rank(m, 20, 1)
	single := *e
	single.SingleUser = true
	for _, side := range []struct {
		name string
		rank func() Result
	}{
		{"batched", func() Result { return e.Rank(m, 20, 1) }},
		{"single-user", func() Result { return single.Rank(m, 20, 1) }},
		{"per-item", func() Result { return e.Rank(scalarOnly{m}, 20, 1) }},
		{"sort", func() Result { return sortRank(e, m, 20) }},
	} {
		b.Run(side.name, func(b *testing.B) {
			var got Result
			for n := 0; n < b.N; n++ {
				got = side.rank()
			}
			if got != want {
				b.Fatalf("%s: %+v != batched %+v", side.name, got, want)
			}
		})
	}
}

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
//   - per-item: block scoring hidden, so each user's full score vector is
//     built item by item and selected with a bounded heap;
//   - sort: the full-sort oracle (block-scored full vector, stable sort).
//
// sort against single-user is what fused top-K selection buys, per-item
// against single-user what block scoring buys, and single-user against
// batched what user batching buys. Every side must return the same Result.
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

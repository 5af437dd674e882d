package models

import (
	"reflect"
	"testing"

	"ptffedrec/internal/metrics"
	"ptffedrec/internal/rng"
	"ptffedrec/internal/tensor"
)

// refSelect materialises the full score vector through ScoreProbsInto and
// selects with the stable-sort reference — the exact semantics ScoreBlockTopK
// must reproduce without ever holding all the scores.
func refSelect(bs BlockScorer, u int, items []int, k int) []int {
	scores := make([]float64, len(items))
	ScoreProbsInto(bs, scores, u, items)
	got := metrics.TopK(scores, k)
	out := make([]int, len(got))
	copy(out, got)
	return out
}

// TestScoreBlockTopKMatchesSort pins the fused selection against the
// score-everything-then-sort reference for every model kind, across candidate
// lists that straddle chunk boundaries and k values from 0 to beyond the list
// length. The chunk size is shrunk so even small lists exercise multi-chunk
// streaming.
func TestScoreBlockTopKMatchesSort(t *testing.T) {
	defer func(c int) { scoreBlockTopKChunk = c }(scoreBlockTopKChunk)
	scoreBlockTopKChunk = 64

	for _, kind := range []Kind{KindMF, KindNeuMF, KindNGCF, KindLightGCN} {
		bs := blockModel(t, kind, false)
		var sc TopKScratch
		for _, items := range raggedLists(blockConfig().NumItems) {
			for _, k := range []int{0, 1, 5, 20, len(items), len(items) + 7} {
				for u := 0; u < 3; u++ {
					got := ScoreBlockTopK(bs, &sc, u, items, k)
					want := refSelect(bs, u, items, k)
					if len(got) != len(want) {
						t.Fatalf("%s u=%d n=%d k=%d: got %d indices, want %d",
							kind, u, len(items), k, len(got), len(want))
					}
					if len(want) > 0 && !reflect.DeepEqual(got, want) {
						t.Fatalf("%s u=%d n=%d k=%d: fused selection %v != sort %v",
							kind, u, len(items), k, got, want)
					}
				}
			}
		}
	}
}

// TestScoreBlockTopKTieHeavy drives the fused selection through a scorer that
// returns quantized scores, so tie-breaking (index asc within equal scores)
// decides most of the selection.
func TestScoreBlockTopKTieHeavy(t *testing.T) {
	defer func(c int) { scoreBlockTopKChunk = c }(scoreBlockTopKChunk)
	scoreBlockTopKChunk = 32

	quant := blockScorerFunc(func(dst []float64, u int, items []int) {
		for i, v := range items {
			dst[i] = float64((v*7+u)%4) / 3
		}
	})
	s := rng.New(5)
	var sc TopKScratch
	for trial := 0; trial < 100; trial++ {
		n := 1 + s.Intn(200)
		items := make([]int, n)
		for i := range items {
			items[i] = s.Intn(500)
		}
		k := 1 + s.Intn(30)
		got := ScoreBlockTopK(quant, &sc, trial%3, items, k)
		want := refSelect(quant, trial%3, items, k)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d k=%d): fused %v != sort %v", trial, n, k, got, want)
		}
	}
}

// TestScoreBlockTopKAllocFree checks the scratch contract: once warm, a
// selection allocates nothing.
func TestScoreBlockTopKAllocFree(t *testing.T) {
	m := blockModel(t, KindMF, false)
	items := make([]int, blockConfig().NumItems)
	for i := range items {
		items[i] = i
	}
	var sc TopKScratch
	ScoreBlockTopK(m, &sc, 0, items, 20)
	allocs := testing.AllocsPerRun(50, func() {
		ScoreBlockTopK(m, &sc, 1, items, 20)
	})
	if allocs != 0 {
		t.Fatalf("warm ScoreBlockTopK allocates %v times per run", allocs)
	}
}

// blockScorerFunc adapts a logit-producing function to BlockScorer for tests.
type blockScorerFunc func(dst []float64, u int, items []int)

func (f blockScorerFunc) ScoreBlockLogitsInto(dst []float64, u int, items []int) { f(dst, u, items) }

func (f blockScorerFunc) ScoreUsersBlockLogitsInto(dst *tensor.Matrix, users []int, items []int) {
	for r, u := range users {
		f(dst.Row(r), u, items)
	}
}

func (f blockScorerFunc) ScorePairsInto(dst []float64, users []int, items []int) {
	for p, u := range users {
		f(dst[p:p+1], u, items[p:p+1])
	}
	sigmoidVec(dst)
}

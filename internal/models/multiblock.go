package models

import (
	"fmt"

	"ptffedrec/internal/nn"
	"ptffedrec/internal/tensor"
)

// BlockScorer is the scoring contract every model in this package
// implements, and the only scoring code a model carries: the evaluator, the
// dispersal engines and ScoreItems all reach a model through it. Scoring runs
// through matrix kernels over whole candidate blocks — MF and the graph
// models through fused row-gather GEMV/GEMM kernels against the (propagated)
// embedding matrices, NeuMF through chunked MLP forwards over a pooled
// workspace.
//
//   - ScoreBlockLogitsInto fills dst (len(items)) with user u's raw
//     pre-sigmoid logit for each candidate item.
//   - ScoreUsersBlockLogitsInto fills dst (len(users) × len(items)) with the
//     logit of every (users[i], items[j]) pair; row i is bitwise-identical to
//     ScoreBlockLogitsInto(row, users[i], items) for any batch composition.
//   - ScorePairsInto is the ragged half: dst[p] = σ(logit) of the pair
//     (users[p], items[p]), bitwise-identical to scoring each pair alone. It
//     stays in the probability domain because its consumer, dispersal's
//     final re-scoring, ships every pair's probability over the wire.
//
// Sigmoid placement is part of the contract: σ is applied in exactly one
// place, ScoreProbsInto, whose output is the logits passed element-wise
// through nn.Sigmoid. Selection consumers rank raw logits under
// metrics.LogitTopKSelector's tie-safe contract — σ is monotone, but float
// rounding can collapse distinct logits to equal probabilities, which the
// selector resolves exactly — paying σ only for the candidates that reach a
// heap.
//
// Every value is independent of how candidates, users or pairs are grouped
// into calls, so evaluation metrics, dispersal plans and training histories
// do not depend on batching. Concurrent calls for distinct users are safe
// once lazily built shared state is warm (Warmer) and the model's tables are
// dense; Lazy models materialise rows on read and must be scored from one
// goroutine.
type BlockScorer interface {
	ScoreBlockLogitsInto(dst []float64, u int, items []int)
	ScoreUsersBlockLogitsInto(dst *tensor.Matrix, users []int, items []int)
	ScorePairsInto(dst []float64, users []int, items []int)
}

// ScoreProbsInto is the contract's σ boundary: it fills dst (len(items))
// with user u's logits from bs.ScoreBlockLogitsInto, each passed through
// nn.Sigmoid.
func ScoreProbsInto(bs BlockScorer, dst []float64, u int, items []int) {
	bs.ScoreBlockLogitsInto(dst, u, items)
	sigmoidVec(dst)
}

// scoreItems is every model's ScoreItems: the σ-boundary scores in a fresh
// slice.
func scoreItems(bs BlockScorer, u int, items []int) []float64 {
	dst := make([]float64, len(items))
	ScoreProbsInto(bs, dst, u, items)
	return dst
}

// sigmoidVec replaces each logit in dst with σ(logit).
func sigmoidVec(dst []float64) {
	for i, v := range dst {
		dst[i] = nn.Sigmoid(v)
	}
}

// checkBlock validates a ScoreBlockLogitsInto destination.
func checkBlock(dst []float64, items []int) {
	if len(dst) != len(items) {
		panic(fmt.Sprintf("models: ScoreBlockLogitsInto dst[%d] for %d items", len(dst), len(items)))
	}
}

// checkUsersBlock validates a ScoreUsersBlockLogitsInto destination.
func checkUsersBlock(dst *tensor.Matrix, users, items []int) {
	if dst.Rows != len(users) || dst.Cols != len(items) {
		panic(fmt.Sprintf("models: ScoreUsersBlockLogitsInto dst %dx%d for %d users × %d items",
			dst.Rows, dst.Cols, len(users), len(items)))
	}
}

// checkPairs validates a ScorePairsInto destination.
func checkPairs(dst []float64, users, items []int) {
	if len(dst) != len(users) || len(users) != len(items) {
		panic(fmt.Sprintf("models: ScorePairsInto dst[%d] for %d users × %d items",
			len(dst), len(users), len(items)))
	}
}

package models

import "ptffedrec/internal/metrics"

// scoreBlockTopKChunk is how many scores ScoreBlockTopK materialises at a
// time. Large enough that the per-chunk kernel dispatch is amortised (and a
// multiple of NeuMF's internal 256-item forward chunks), small enough that a
// full-catalogue selection stays in cache instead of writing a NumItems-length
// score vector. A var so tests can shrink it to force multi-chunk selections
// on small candidate lists.
var scoreBlockTopKChunk = 1024

// TopKScratch carries ScoreBlockTopK's reusable state — the streaming
// selector, the chunk score buffer, and the output slice — so a caller that
// keeps one scratch per worker runs selections allocation-free.
type TopKScratch struct {
	sel    metrics.TopKSelector
	scores []float64
	out    []int
}

// ScoreBlockTopK fuses top-k selection into the block scoring engine: it
// scores items for user u in fixed-size chunks through ScoreProbsInto,
// streaming each chunk's probabilities into a bounded-heap selector, and
// returns the indices into items of the k highest scores ordered (score desc,
// index asc). The result is bitwise-identical to filling a full len(items)
// score vector with ScoreProbsInto and running metrics.TopKInto — the
// BlockScorer contract makes every chunk's scores independent of how the
// list is sliced — but only scoreBlockTopKChunk scores ever exist at once.
//
// This is the single-user probability-domain engine, used where users are
// ranked one at a time: the evaluator's SingleUser and streaming modes and
// the scalar dispersal path. The multi-user engines batch users through
// ScoreUsersBlockLogitsInto and select raw logits with
// metrics.LogitTopKSelector instead — same output, fewer sigmoids.
//
// The returned slice is backed by sc and valid until the next call with the
// same scratch.
func ScoreBlockTopK(bs BlockScorer, sc *TopKScratch, u int, items []int, k int) []int {
	if k > len(items) {
		k = len(items)
	}
	if k <= 0 {
		sc.out = sc.out[:0]
		return sc.out
	}
	chunk := scoreBlockTopKChunk
	if chunk > len(items) {
		chunk = len(items)
	}
	if cap(sc.scores) < chunk {
		sc.scores = make([]float64, chunk)
	}
	sc.sel.Reset(k)
	for off := 0; off < len(items); off += chunk {
		end := off + chunk
		if end > len(items) {
			end = len(items)
		}
		buf := sc.scores[:end-off]
		ScoreProbsInto(bs, buf, u, items[off:end])
		sc.sel.PushRow(off, buf)
	}
	sc.out = sc.sel.Into(sc.out)
	return sc.out
}

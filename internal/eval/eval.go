// Package eval computes the paper's ranking metrics (§IV-B): Recall@20 and
// NDCG@20 over every item the user has not interacted with in training, with
// the held-out 20% as relevance targets.
//
// Evaluation is embarrassingly parallel across users, and once per-round
// traffic is kilobytes it dominates server-side wall-clock, so Ranking fans
// the user loop out over a worker pool. Per-user metric values are written to
// index-addressed slots and reduced sequentially in user order, so the result
// is bitwise-identical for every worker count.
//
// Three engines remove the remaining per-round costs. The candidate cache: an
// Evaluator builds each user's candidate list from the immutable train mask
// once and reuses it every round, so the per-round loop never touches
// Split.InTrain. The multi-user batched engine: a scorer that is a
// models.BlockScorer (every model) scores evalUsersBatch users per kernel
// call in logit domain — one ScoreUsersBlockLogitsInto gather-GEMM per (user
// batch, item window), each user's cached candidate list walked against the
// window, raw logits streamed into metrics.LogitTopKSelector under its
// tie-safe contract — so the item-embedding rows are loaded once per batch
// instead of once per user and the sigmoid is paid only for candidates that
// reach a heap. The single-user engine: streaming and SingleUser evaluators
// drive a block scorer chunk-wise through models.ScoreBlockTopK, so a user's
// scores stream through a bounded-heap top-k selection instead of
// materialising a NumItems-length vector. Any other models.Scorer — the
// ScorerFunc adapters of client evaluation and the baselines — is ranked from
// its ScoreItems vector with metrics.TopKInto. All paths are
// bitwise-identical to the naive score-everything-then-sort evaluation, so
// Results never depend on the path taken.
//
// Whether a scorer is a block scorer is resolved once per Rank call, not per
// user; models.Warmer warms lazily built shared state before workers fan out.
package eval

import (
	"ptffedrec/internal/candset"
	"ptffedrec/internal/data"
	"ptffedrec/internal/metrics"
	"ptffedrec/internal/models"
	"ptffedrec/internal/par"
	"ptffedrec/internal/tensor"
)

// evalUsersBatch is how many users the batched engine scores per kernel call:
// the multi-user GEMM loads each item-embedding row once per batch instead of
// once per user, and its interleaved accumulators hide FP-add latency. Purely
// a scheduling knob — the batch grouping never changes results. A var so
// tests can shrink it to force multi-batch runs on small user sets.
var evalUsersBatch = 16

// evalScoreChunk is the item-window width of the batched engine: a user
// batch's logits materialise batch×chunk at a time, streaming each window's
// candidate logits into the per-user selectors, so no full score vector ever
// exists. A var so tests can shrink it to force multi-window selections on
// small catalogues.
var evalScoreChunk = 1024

// caps is the evaluator's view of a scorer, resolved once per Rank call:
// block is non-nil when the scorer implements the block contract.
type caps struct {
	scorer models.Scorer
	block  models.BlockScorer
}

func detectCaps(s models.Scorer) caps {
	bs, _ := s.(models.BlockScorer)
	return caps{scorer: s, block: bs}
}

// Result holds user-averaged ranking metrics.
type Result struct {
	Recall, NDCG float64
	Users        int
}

// Evaluator is the selection engine's round-persistent state for one split:
// the evaluated-user list and every user's candidate set, built exactly once
// — the train mask never changes across rounds — and reused by every Rank
// call. The candidate lists do not depend on the cutoff, so one Evaluator
// serves any k. It is scorer-agnostic and read-only after construction, so
// one Evaluator can serve concurrent Rank calls (the federated trainer holds
// one across rounds and shares it between the server and client evaluations).
//
// Candidates are stored in a candset.Packed — int32 in one contiguous
// backing array, four bytes per (user, candidate) pair, ≈760 MB at the full
// 50k-user × 4000-item profile and ≈20 MB at the default small profile — the
// memory the cache trades for never rebuilding candidate lists or probing
// the train mask again. One-shot callers (Ranking, RankingWorkers) use a
// streaming evaluator instead, which rebuilds each user's list in per-worker
// scratch and allocates no cache at all (and therefore always ranks through
// the single-user engine).
type Evaluator struct {
	sp *data.Split

	users []int           // users with held-out items, ascending
	cache *candset.Packed // per-user candidate lists, ascending; nil when streaming
	ident []int           // identity item list 0..NumItems-1 for the batched windows

	// SingleUser forces ranking through the retained single-user engine —
	// one probability-domain ScoreBlockTopK selection per user — instead of
	// the multi-user batched logit engine. Results are bitwise-identical
	// either way; the knob backs fed.Config.EvalSingleUser. Set before Rank,
	// never concurrently with it.
	SingleUser bool
}

// NewEvaluator builds the candidate cache for a split with GOMAXPROCS
// workers. Each user's candidate list is the ascending complement of their
// training positives, computed with one merge walk over the sorted train
// list.
func NewEvaluator(sp *data.Split) *Evaluator {
	return NewEvaluatorWorkers(sp, 0)
}

// NewEvaluatorWorkers is NewEvaluator with an explicit worker count
// (<= 0 means GOMAXPROCS) for the cold cache build: the packed layout is
// fixed by a size prefix-sum before any list is filled and each user's list
// is written by exactly one goroutine into its own range, so the cache is
// identical for every worker count.
func NewEvaluatorWorkers(sp *data.Split, workers int) *Evaluator {
	e := newStreamingEvaluator(sp)
	e.cache = candset.BuildPacked(len(e.users), par.Workers(workers),
		func(i int) int { return sp.NumItems - len(sp.Train[e.users[i]]) },
		func(i int, dst []int32) {
			candset.AppendComplementSorted(dst[:0], sp.NumItems, sp.Train[e.users[i]])
		})
	e.ident = make([]int, sp.NumItems)
	for v := range e.ident {
		e.ident[v] = v
	}
	return e
}

// LazyEvaluator returns *ep, building the split's candidate cache into it on
// first use — the one lazy-init used by every trainer that holds a cached
// Evaluator across rounds.
func LazyEvaluator(ep **Evaluator, sp *data.Split) *Evaluator {
	if *ep == nil {
		*ep = NewEvaluator(sp)
	}
	return *ep
}

// newStreamingEvaluator builds an Evaluator without the candidate cache:
// Rank rebuilds each user's candidate list in per-worker scratch with the
// same merge walk. Right for one-shot evaluations, where a cache would be
// built and thrown away.
func newStreamingEvaluator(sp *data.Split) *Evaluator {
	e := &Evaluator{sp: sp}
	for u := 0; u < sp.NumUsers; u++ {
		if len(sp.Test[u]) > 0 {
			e.users = append(e.users, u)
		}
	}
	return e
}

// Users returns how many users the evaluator covers.
func (e *Evaluator) Users() int { return len(e.users) }

// CacheBytes reports the candidate cache's resident bytes (0 for streaming
// evaluators) — the scalability experiment's memory-accounting hook.
func (e *Evaluator) CacheBytes() int64 {
	if e.cache == nil {
		return 0
	}
	return e.cache.MemoryBytes()
}

// scratch is one worker's reusable state for its whole share of users on the
// single-user paths: the widened candidate list, the selection output, the
// ranked item list, the relevance set, and the fused selection engine's
// scratch. Nothing here is allocated per user (a non-block scorer allocates
// its own ScoreItems vector).
type scratch struct {
	cand     []int
	top      []int
	ranked   []int
	relevant map[int]bool
	topk     models.TopKScratch
}

// batchScratch is one worker's reusable state for the batched multi-user
// engine: the window logit matrix backing (plus its reusable header), one
// logit-domain selector and candidate cursor per batch slot, the selectors'
// three shared heap slabs, the ranked item list, and the relevance set.
// Nothing here is allocated per batch — and because the selectors borrow
// evalK-wide slab segments instead of growing their own arrays, building the
// scratch itself costs a fixed handful of allocations, not three per slot.
type batchScratch struct {
	k        int       // slab stride: the Rank call's cutoff
	scores   []float64 // batch×window logit backing
	mat      tensor.Matrix
	sels     []metrics.LogitTopKSelector
	selIdx   []int // evalUsersBatch×k selector heap slabs
	selLogit []float64
	selProb  []float64
	cursors  []int
	ranked   []int
	relevant map[int]bool
}

func newBatchScratch(k int) *batchScratch {
	return &batchScratch{
		k:        k,
		sels:     make([]metrics.LogitTopKSelector, evalUsersBatch),
		selIdx:   make([]int, evalUsersBatch*k),
		selLogit: make([]float64, evalUsersBatch*k),
		selProb:  make([]float64, evalUsersBatch*k),
		cursors:  make([]int, evalUsersBatch),
		ranked:   make([]int, 0, k),
		relevant: make(map[int]bool, 16),
	}
}

// resetSel points slot i's selector at its slab segment with cutoff kSel
// (≤ the slab stride, so the heap never outgrows the segment).
func (sc *batchScratch) resetSel(i, kSel int) {
	lo, hi := i*sc.k, (i+1)*sc.k
	sc.sels[i].ResetBacked(kSel, sc.selIdx[lo:lo:hi], sc.selLogit[lo:lo:hi], sc.selProb[lo:lo:hi])
}

// scoreMat returns a rows×cols logit matrix over the scratch backing,
// growing it as needed. The returned header lives in the scratch, so windows
// don't allocate.
func (sc *batchScratch) scoreMat(rows, cols int) *tensor.Matrix {
	if need := rows * cols; cap(sc.scores) < need {
		sc.scores = make([]float64, need)
	}
	sc.mat = tensor.Matrix{Rows: rows, Cols: cols, Data: sc.scores[:rows*cols]}
	return &sc.mat
}

// Rank evaluates the scorer at cutoff k over the cached (or streamed)
// candidate sets with the given worker count (<= 0 means GOMAXPROCS).
// Metrics are bitwise-identical for every worker count and every
// selection/scoring path: per-user values depend only on the scorer, and the
// reduction runs sequentially in user order.
func (e *Evaluator) Rank(s models.Scorer, k, workers int) Result {
	if len(e.users) == 0 {
		return Result{}
	}
	workers = par.Workers(workers)
	c := detectCaps(s)
	// The batched multi-user engine needs a block scorer and the candidate
	// cache (streaming evaluators rebuild lists per user, which only the
	// single-user loop does); SingleUser forces the single-user engine.
	batched := c.block != nil && e.cache != nil && !e.SingleUser
	if workers > 1 {
		if w, ok := s.(models.Warmer); ok {
			w.WarmScoring()
		}
	}
	recalls := make([]float64, len(e.users))
	ndcgs := make([]float64, len(e.users))
	// Chunk users so each worker reuses one scratch across its whole share
	// instead of allocating per user (or per batch).
	chunk := (len(e.users) + workers - 1) / workers
	if batched {
		par.ForChunks(len(e.users), chunk, workers, func(lo, hi int) {
			sc := newBatchScratch(k)
			for b := lo; b < hi; b += evalUsersBatch {
				be := b + evalUsersBatch
				if be > hi {
					be = hi
				}
				e.evalUserBatch(c.block, sc, b, be, k, recalls, ndcgs)
			}
		})
	} else {
		par.ForChunks(len(e.users), chunk, workers, func(lo, hi int) {
			sc := &scratch{
				cand:     make([]int, e.sp.NumItems),
				ranked:   make([]int, 0, k),
				relevant: make(map[int]bool, 16),
			}
			for i := lo; i < hi; i++ {
				recalls[i], ndcgs[i] = e.evalUser(&c, sc, i, k)
			}
		})
	}
	var agg metrics.RankEval
	for i := range e.users {
		agg.AddUser(recalls[i], ndcgs[i])
	}
	r, n := agg.Mean()
	return Result{Recall: r, NDCG: n, Users: agg.Users}
}

// evalUser ranks one user through the single-user engine and returns their
// Recall@k and NDCG@k. All storage comes from the worker's scratch.
func (e *Evaluator) evalUser(c *caps, sc *scratch, i, k int) (recall, ndcg float64) {
	u := e.users[i]
	var cand []int
	if e.cache != nil {
		cand = candset.Widen(sc.cand, e.cache.List(i))
	} else {
		// Streaming evaluator: rebuild the candidate list in scratch with the
		// same merge walk the cache build uses.
		cand = candset.AppendComplementSorted(sc.cand[:0], e.sp.NumItems, e.sp.Train[u])
	}
	var top []int
	if c.block != nil {
		// Fused path: scores stream chunk-wise into a bounded-heap selection;
		// no full score vector exists.
		top = models.ScoreBlockTopK(c.block, &sc.topk, u, cand, k)
	} else {
		// Partial selection over a materialised score vector (scorers without
		// block scoring, e.g. per-client adapters).
		sc.top = metrics.TopKInto(sc.top, c.scorer.ScoreItems(u, cand), k)
		top = sc.top
	}
	ranked := sc.ranked[:0]
	for _, idx := range top {
		ranked = append(ranked, cand[idx])
	}
	sc.ranked = ranked
	return e.userMetrics(ranked, sc.relevant, u, k)
}

// evalUserBatch ranks users [b, be) of e.users through the batched multi-user
// logit engine: the batch's logits for each evalScoreChunk-wide item window
// come from one ScoreUsersBlockLogitsInto call, each user's ascending cached
// candidate list is walked across the window pushing (item, logit) into that
// user's logit-domain selector, and each selector's winners are the user's
// ranked items.
//
// Bitwise equivalence with the single-user engine, piece by piece: the logit
// windows match ScoreBlockLogitsInto's values for any window boundary
// (per-element independence, the BlockScorer contract), so scoring the
// whole universe and reading only candidate positions yields exactly the
// logits of scoring the candidate list directly; candidate lists are
// ascending in item id, so pushing item ids preserves the single-user path's
// (score desc, position asc) selection order; and LogitTopKSelector resolves
// σ-collapsed ties exactly as the probability-domain selector does. Only the
// sigmoid count differs — paid per heap insertion here, per candidate there.
func (e *Evaluator) evalUserBatch(bs models.BlockScorer, sc *batchScratch, b, be, k int, recalls, ndcgs []float64) {
	n := be - b
	users := e.users[b:be]
	for i := 0; i < n; i++ {
		kSel := k
		if cl := len(e.cache.List(b + i)); kSel > cl {
			kSel = cl
		}
		sc.resetSel(i, kSel)
		sc.cursors[i] = 0
	}
	for lo := 0; lo < e.sp.NumItems; lo += evalScoreChunk {
		hi := lo + evalScoreChunk
		if hi > e.sp.NumItems {
			hi = e.sp.NumItems
		}
		m := sc.scoreMat(n, hi-lo)
		bs.ScoreUsersBlockLogitsInto(m, users, e.ident[lo:hi])
		for i := 0; i < n; i++ {
			cand := e.cache.List(b + i)
			row := m.Row(i)
			cur := sc.cursors[i]
			for cur < len(cand) && int(cand[cur]) < hi {
				v := int(cand[cur])
				sc.sels[i].Push(v, row[v-lo])
				cur++
			}
			sc.cursors[i] = cur
		}
	}
	for i := 0; i < n; i++ {
		sc.ranked = sc.sels[i].Into(sc.ranked)
		recalls[b+i], ndcgs[b+i] = e.userMetrics(sc.ranked, sc.relevant, e.users[b+i], k)
	}
}

// userMetrics computes one user's Recall@k and NDCG@k from their ranked item
// list, rebuilding the relevance set in the worker's scratch map.
func (e *Evaluator) userMetrics(ranked []int, relevant map[int]bool, u, k int) (recall, ndcg float64) {
	clear(relevant)
	for _, v := range e.sp.Test[u] {
		relevant[v] = true
	}
	return metrics.RecallAtK(ranked, relevant, k), metrics.NDCGAtK(ranked, relevant, k)
}

// Ranking evaluates the scorer on a split at cutoff k with GOMAXPROCS
// workers. For each user with held-out items, every non-train item is scored;
// train positives are excluded from the candidate list.
func Ranking(s models.Scorer, sp *data.Split, k int) Result {
	return RankingWorkers(s, sp, k, 0)
}

// RankingWorkers is Ranking with an explicit worker count (<= 0 means
// GOMAXPROCS). It streams candidates from the train mask in per-worker
// scratch — no cache is allocated; callers that evaluate the same split every
// round should hold a persistent Evaluator instead, which additionally caches
// the candidate lists and unlocks the batched multi-user engine.
func RankingWorkers(s models.Scorer, sp *data.Split, k, workers int) Result {
	return newStreamingEvaluator(sp).Rank(s, k, workers)
}

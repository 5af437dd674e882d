package models

import (
	"ptffedrec/internal/graph"
	"ptffedrec/internal/nn"
	"ptffedrec/internal/rng"
	"ptffedrec/internal/tensor"
)

// LightGCN implements He et al. (2020): embeddings are propagated L times
// over the symmetric normalized adjacency with no transforms or
// nonlinearities, and the readout is the layer mean
//
//	E_final = 1/(L+1) · Σ_{l=0..L} Â^l E⁰ ,  r̂ᵤᵥ = σ(eᵤ·eᵥ).
//
// Backpropagation exploits Â's symmetry: dE⁰ = Σ_l c·Â^l dE_final, computed
// with the recurrence G_{l-1} = c·dF + Â·G_l.
type LightGCN struct {
	cfg     Config
	workers int
	e0      *nn.Param // (U+V)×d
	opt     *nn.Adam

	adj   *tensor.CSR
	final *tensor.Matrix
	dirty bool
}

// NewLightGCN builds the model over an initially empty graph (call SetGraph).
func NewLightGCN(cfg Config, s *rng.Stream) *LightGCN {
	n := cfg.NumUsers + cfg.NumItems
	m := &LightGCN{
		cfg:     cfg,
		workers: resolveTrainWorkers(cfg),
		e0:      nn.NewParam("lightgcn.E0", n, cfg.Dim),
		opt:     nn.NewAdam(cfg.LR),
		dirty:   true,
	}
	nn.Normal(s.Derive("e0"), m.e0.W, 0.1)
	m.SetGraph(graph.NewBipartite(cfg.NumUsers, cfg.NumItems))
	return m
}

// Name implements Recommender.
func (m *LightGCN) Name() string { return string(KindLightGCN) }

// NumParams implements Recommender.
func (m *LightGCN) NumParams() int { return m.e0.NumValues() }

// SetGraph implements GraphRecommender.
func (m *LightGCN) SetGraph(g *graph.Bipartite) {
	if g.NumUsers != m.cfg.NumUsers || g.NumItems != m.cfg.NumItems {
		panic("models: LightGCN graph universe mismatch")
	}
	m.adj = g.NormalizedAdjPar(m.workers)
	m.dirty = true
}

// SetGraphIncremental implements GraphDeltaRecommender: the maintained
// adjacency is assembled straight into the model's reused CSR buffer.
func (m *LightGCN) SetGraphIncremental(inc *graph.Incremental) {
	if inc.NumUsers() != m.cfg.NumUsers || inc.NumItems() != m.cfg.NumItems {
		panic("models: LightGCN graph universe mismatch")
	}
	m.adj = inc.AdjInto(m.adj, m.workers)
	m.dirty = true
}

// propagate returns the cached layer-mean embeddings, recomputing when the
// parameters or graph changed. The SpMM shards over row ranges on the
// TrainWorkers pool, bitwise-identical for any worker count.
func (m *LightGCN) propagate() *tensor.Matrix {
	if !m.dirty && m.final != nil {
		return m.final
	}
	c := 1.0 / float64(m.cfg.Layers+1)
	final := m.e0.W.Clone().Scale(c)
	cur := m.e0.W
	buf := tensor.New(cur.Rows, cur.Cols)
	for l := 0; l < m.cfg.Layers; l++ {
		m.adj.MulDenseIntoPar(buf, cur, m.workers)
		final.AddScaled(c, buf)
		cur = buf.Clone()
	}
	m.final = final
	m.dirty = false
	return final
}

// WarmScoring implements Warmer: it forces the propagation cache so
// concurrent ScoreItems calls are pure reads.
func (m *LightGCN) WarmScoring() { m.propagate() }

func (m *LightGCN) itemNode(v int) int { return m.cfg.NumUsers + v }

// Score implements Recommender per item; it is the reference the block
// kernels are tested against.
func (m *LightGCN) Score(u, v int) float64 {
	f := m.propagate()
	return nn.Sigmoid(dot(f.Row(u), f.Row(m.itemNode(v))))
}

// ScoreItems implements Recommender.
func (m *LightGCN) ScoreItems(u int, items []int) []float64 { return scoreItems(m, u, items) }

// ScoreBlockLogitsInto implements BlockScorer for one user: one fused
// row-gather GEMV against the propagated embedding matrix produces the whole
// candidate list's raw dot products (sharded over the TrainWorkers pool for
// very long lists).
func (m *LightGCN) ScoreBlockLogitsInto(dst []float64, u int, items []int) {
	checkBlock(dst, items)
	f := m.propagate()
	tensor.GatherMulVecIntoPar(dst, f, items, m.cfg.NumUsers, f.Row(u), m.workers)
}

// ScoreUsersBlockLogitsInto implements BlockScorer for a user batch:
// one double-gathered GEMM against the propagated embedding matrix produces
// the whole user batch's raw dot products.
func (m *LightGCN) ScoreUsersBlockLogitsInto(dst *tensor.Matrix, users []int, items []int) {
	checkUsersBlock(dst, users, items)
	f := m.propagate()
	tensor.GatherMulMatInto(dst, f, users, 0, f, items, m.cfg.NumUsers)
}

// ScorePairsInto implements BlockScorer's ragged half: one gathered
// pair-dot pass over the propagated embedding matrix, then the sigmoid.
func (m *LightGCN) ScorePairsInto(dst []float64, users []int, items []int) {
	checkPairs(dst, users, items)
	f := m.propagate()
	tensor.GatherPairDotInto(dst, f, users, 0, f, items, m.cfg.NumUsers)
	sigmoidVec(dst)
}

// TrainBatch implements Recommender.
func (m *LightGCN) TrainBatch(batch []Sample) float64 {
	if len(batch) == 0 {
		return 0
	}
	loss := m.accumulateGrad(batch)
	m.opt.Step([]*nn.Param{m.e0})
	m.dirty = true
	return loss
}

// lgcnChunk is one gradient shard's workspace: the shard's loss sum and its
// sparse contribution to dL/dE_final.
type lgcnChunk struct {
	lossSum float64
	df      *rowAccum
}

// accumulateGrad computes the batch loss and adds dL/dE⁰ into the parameter
// gradient without stepping the optimizer. The per-sample score/seed pass is
// sharded into fixed chunks merged in chunk order; the propagation backward
// shards its SpMMs over row ranges.
func (m *LightGCN) accumulateGrad(batch []Sample) float64 {
	f := m.propagate()
	n := len(batch)
	chunks := make([]lgcnChunk, trainChunks(n))
	forChunks(n, m.workers, func(c, lo, hi int) {
		ws := lgcnChunk{df: newRowAccum(m.cfg.Dim)}
		for _, smp := range batch[lo:hi] {
			un, vn := smp.User, m.itemNode(smp.Item)
			pred := nn.Sigmoid(dot(f.Row(un), f.Row(vn)))
			ws.lossSum += nn.BCEOne(pred, smp.Label)
			g := (pred - smp.Label) / float64(n)
			ws.df.axpy(un, g, f.Row(vn))
			ws.df.axpy(vn, g, f.Row(un))
		}
		chunks[c] = ws
	})

	// dL/dE_final from the dot-product scores, merged in chunk order.
	dF := tensor.New(f.Rows, f.Cols)
	var lossSum float64
	for _, ws := range chunks {
		lossSum += ws.lossSum
		ws.df.mergeIntoRows(dF.Row)
	}

	// Back through the propagation: G_L = c·dF, G_{l-1} = c·dF + Â·G_l.
	c := 1.0 / float64(m.cfg.Layers+1)
	g := dF.Clone().Scale(c)
	buf := tensor.New(dF.Rows, dF.Cols)
	for l := m.cfg.Layers; l >= 1; l-- {
		m.adj.MulDenseIntoPar(buf, g, m.workers)
		g = dF.Clone().Scale(c).AddInPlace(buf)
	}
	m.e0.Grad.AddInPlace(g)
	return lossSum / float64(n)
}

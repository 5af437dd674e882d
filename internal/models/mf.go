package models

import (
	"ptffedrec/internal/emb"
	"ptffedrec/internal/nn"
	"ptffedrec/internal/rng"
	"ptffedrec/internal/tensor"
)

// MF is logistic matrix factorization: r̂ᵤᵥ = σ(pᵤ·qᵥ). It is the model
// federated by the FCF and FedMF baselines.
type MF struct {
	cfg     Config
	workers int
	users   embTable
	items   embTable
}

// NewMF builds a matrix factorization model.
func NewMF(cfg Config, s *rng.Stream) *MF {
	hy := emb.DefaultAdam(cfg.LR)
	m := &MF{cfg: cfg, workers: resolveTrainWorkers(cfg)}
	if cfg.Lazy {
		m.users = emb.NewLazyTable(s.Derive("u"), cfg.Dim, hy)
		m.items = emb.NewLazyTable(s.Derive("v"), cfg.Dim, hy)
	} else {
		m.users = emb.NewTable(s.Derive("u"), cfg.NumUsers, cfg.Dim, hy)
		m.items = emb.NewTable(s.Derive("v"), cfg.NumItems, cfg.Dim, hy)
	}
	return m
}

// Name implements Recommender.
func (m *MF) Name() string { return string(KindMF) }

// NumParams implements Recommender.
func (m *MF) NumParams() int { return (m.cfg.NumUsers + m.cfg.NumItems) * m.cfg.Dim }

// Score implements Recommender per item; it is the reference the block
// kernels are tested against.
func (m *MF) Score(u, v int) float64 {
	return nn.Sigmoid(dot(m.users.Row(u), m.items.Row(v)))
}

// ScoreItems implements Recommender.
func (m *MF) ScoreItems(u int, items []int) []float64 { return scoreItems(m, u, items) }

// ScoreBlockLogitsInto implements BlockScorer for one user: one fused
// row-gather GEMV against the dense item-embedding matrix produces the whole
// candidate list's raw dot products (sharded over the TrainWorkers pool for
// very long lists). Lazy item tables have no dense matrix to multiply
// against, so they keep the per-item loop (which materialises rows and is
// therefore single-goroutine anyway).
func (m *MF) ScoreBlockLogitsInto(dst []float64, u int, items []int) {
	checkBlock(dst, items)
	p := m.users.Row(u)
	if t, ok := m.items.(*emb.Table); ok {
		tensor.GatherMulVecIntoPar(dst, t.W, items, 0, p, m.workers)
		return
	}
	for i, v := range items {
		dst[i] = dot(p, m.items.Row(v))
	}
}

// ScoreUsersBlockLogitsInto implements BlockScorer for a user batch:
// one double-gathered GEMM against the dense embedding tables produces the
// whole user batch's raw dot products. Lazy tables fall back to per-user
// logit scoring row by row.
func (m *MF) ScoreUsersBlockLogitsInto(dst *tensor.Matrix, users []int, items []int) {
	checkUsersBlock(dst, users, items)
	ut, uok := m.users.(*emb.Table)
	it, iok := m.items.(*emb.Table)
	if uok && iok {
		tensor.GatherMulMatInto(dst, ut.W, users, 0, it.W, items, 0)
		return
	}
	for i, u := range users {
		m.ScoreBlockLogitsInto(dst.Row(i), u, items)
	}
}

// ScorePairsInto implements BlockScorer's ragged half: one gathered
// pair-dot pass over the dense embedding tables, then the sigmoid.
func (m *MF) ScorePairsInto(dst []float64, users []int, items []int) {
	checkPairs(dst, users, items)
	ut, uok := m.users.(*emb.Table)
	it, iok := m.items.(*emb.Table)
	if uok && iok {
		tensor.GatherPairDotInto(dst, ut.W, users, 0, it.W, items, 0)
	} else {
		for p, u := range users {
			dst[p] = dot(m.users.Row(u), m.items.Row(items[p]))
		}
	}
	sigmoidVec(dst)
}

// TrainBatch implements Recommender.
func (m *MF) TrainBatch(batch []Sample) float64 {
	if len(batch) == 0 {
		return 0
	}
	loss := m.accumulateGrad(batch)
	m.users.Step()
	m.items.Step()
	return loss
}

// mfChunk is one gradient shard's workspace.
type mfChunk struct {
	lossSum      float64
	users, items *rowAccum
}

// accumulateGrad computes the batch loss and adds the embedding-row
// gradients without applying them. Chunks of the batch are processed on the
// TrainWorkers pool into private workspaces (weights are read-only until
// Step), then merged in chunk order.
func (m *MF) accumulateGrad(batch []Sample) float64 {
	n := len(batch)
	chunks := make([]mfChunk, trainChunks(n))
	forChunks(n, m.workers, func(c, lo, hi int) {
		ws := mfChunk{users: newRowAccum(m.cfg.Dim), items: newRowAccum(m.cfg.Dim)}
		for _, smp := range batch[lo:hi] {
			p := m.users.Row(smp.User)
			q := m.items.Row(smp.Item)
			pred := nn.Sigmoid(dot(p, q))
			ws.lossSum += nn.BCEOne(pred, smp.Label)
			g := (pred - smp.Label) / float64(n)
			ws.users.axpy(smp.User, g, q)
			ws.items.axpy(smp.Item, g, p)
		}
		chunks[c] = ws
	})
	var lossSum float64
	for _, ws := range chunks {
		lossSum += ws.lossSum
		ws.users.mergeInto(m.users)
		ws.items.mergeInto(m.items)
	}
	return lossSum / float64(n)
}

// UserRow exposes user u's embedding (read-only) for the federated baselines
// that transmit embeddings directly.
func (m *MF) UserRow(u int) []float64 { return m.users.Row(u) }

// ItemRow exposes item v's embedding (read-only).
func (m *MF) ItemRow(v int) []float64 { return m.items.Row(v) }

func dot(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

package tensor

// This file holds parallel variants of the hot linear-algebra kernels. Every
// function here keeps a determinism contract: results are bitwise-identical
// for every worker count, either because each output row is produced by
// exactly one goroutine with the serial inner-loop order (row-partitioned
// kernels), or because the reduction runs over fixed-size chunks merged in
// chunk order (MatMulATBPar).

import (
	"fmt"

	"ptffedrec/internal/par"
)

// parRowChunk is the row-range granularity of the row-partitioned kernels:
// coarse enough that the worker pool's atomic counter is off the hot path,
// fine enough to balance skewed row costs (e.g. popular items in an
// adjacency). Purely a scheduling knob — it never affects results.
const parRowChunk = 128

// atbChunkRows is the fixed row-shard width of MatMulATBPar's ordered
// reduction. It is a semantic constant: changing it changes the float
// association of the result, so it must not depend on the worker count.
const atbChunkRows = 1024

// MulDenseIntoPar computes dst = m·x like MulDenseInto, sharding dst's rows
// over workers. Bitwise-identical to MulDenseInto for every worker count.
func (m *CSR) MulDenseIntoPar(dst, x *Matrix, workers int) {
	if workers <= 1 {
		m.MulDenseInto(dst, x)
		return
	}
	if m.Cols != x.Rows || dst.Rows != m.Rows || dst.Cols != x.Cols {
		panic(fmt.Sprintf("tensor: CSR MulDenseIntoPar %dx%d = %dx%d · %dx%d",
			dst.Rows, dst.Cols, m.Rows, m.Cols, x.Rows, x.Cols))
	}
	par.ForChunks(m.Rows, parRowChunk, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			drow := dst.Row(i)
			for k := range drow {
				drow[k] = 0
			}
			for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
				Axpy(m.Val[p], x.Row(m.ColIdx[p]), drow)
			}
		}
	})
}

// MulDensePar returns m·x as a new matrix, computed with MulDenseIntoPar.
func (m *CSR) MulDensePar(x *Matrix, workers int) *Matrix {
	out := New(m.Rows, x.Cols)
	m.MulDenseIntoPar(out, x, workers)
	return out
}

// MatMulIntoPar computes dst = a·b like MatMulInto, sharding dst's rows over
// workers. Bitwise-identical to MatMulInto for every worker count.
func MatMulIntoPar(dst, a, b *Matrix, workers int) {
	if workers <= 1 {
		MatMulInto(dst, a, b)
		return
	}
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulIntoPar %dx%d = %dx%d · %dx%d",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	par.ForChunks(a.Rows, parRowChunk, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			drow := dst.Row(i)
			for k := range drow {
				drow[k] = 0
			}
			for k := 0; k < a.Cols; k++ {
				av := arow[k]
				if av == 0 {
					continue
				}
				brow := b.Row(k)
				for j, bv := range brow {
					drow[j] += av * bv
				}
			}
		}
	})
}

// MatMulPar returns a·b as a new matrix, computed with MatMulIntoPar.
func MatMulPar(a, b *Matrix, workers int) *Matrix {
	out := New(a.Rows, b.Cols)
	MatMulIntoPar(out, a, b, workers)
	return out
}

// MatMulABTPar returns a·bᵀ like MatMulABT, sharding output rows over
// workers. Bitwise-identical to MatMulABT for every worker count.
func MatMulABTPar(a, b *Matrix, workers int) *Matrix {
	if workers <= 1 {
		return MatMulABT(a, b)
	}
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulABTPar %dx%d · %dx%d ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Rows)
	par.ForChunks(a.Rows, parRowChunk, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			orow := out.Row(i)
			for j := 0; j < b.Rows; j++ {
				orow[j] = Dot(arow, b.Row(j))
			}
		}
	})
	return out
}

// MatMulATBPar returns aᵀ·b, reducing over fixed atbChunkRows-row shards of
// the shared leading dimension and merging the per-shard partial products in
// shard order. The result is bitwise-identical for every worker count, but —
// unlike the row-partitioned kernels — its float association differs from the
// serial MatMulATB once a.Rows exceeds one shard; callers must pick one of
// the two consistently.
func MatMulATBPar(a, b *Matrix, workers int) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulATBPar %dx%d ᵀ· %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	nChunks := (a.Rows + atbChunkRows - 1) / atbChunkRows
	if nChunks <= 1 {
		return MatMulATB(a, b)
	}
	partials := make([]*Matrix, nChunks)
	par.For(nChunks, workers, func(c int) {
		lo := c * atbChunkRows
		hi := lo + atbChunkRows
		if hi > a.Rows {
			hi = a.Rows
		}
		partials[c] = matMulATBRange(a, b, lo, hi)
	})
	out := partials[0]
	for _, p := range partials[1:] {
		out.AddInPlace(p)
	}
	return out
}

// GatherMulVecIntoPar computes dst[i] = m.Row(rows[i]+rowOffset)·x like
// GatherMulVecInto, sharding the gathered rows over workers once the
// candidate list is long enough (gemvParMinRows) for the pool handoff to
// pay. Bitwise-identical to GatherMulVecInto for every worker count: each
// output element is one Dot produced by exactly one goroutine.
func GatherMulVecIntoPar(dst []float64, m *Matrix, rows []int, rowOffset int, x []float64, workers int) {
	if workers <= 1 || len(rows) < gemvParMinRows {
		GatherMulVecInto(dst, m, rows, rowOffset, x)
		return
	}
	if len(dst) != len(rows) {
		panic(fmt.Sprintf("tensor: GatherMulVecIntoPar dst[%d] for %d rows", len(dst), len(rows)))
	}
	if len(x) != m.Cols {
		panic(fmt.Sprintf("tensor: GatherMulVecIntoPar x[%d], m %dx%d", len(x), m.Rows, m.Cols))
	}
	par.ForChunks(len(rows), gemvParChunk, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = Dot(m.Row(rows[i]+rowOffset), x)
		}
	})
}

// GatherMulVecAddIntoPar is GatherMulVecIntoPar accumulating into dst, the
// parallel form of GatherMulVecAddInto with the same threshold and
// determinism contract.
func GatherMulVecAddIntoPar(dst []float64, m *Matrix, rows []int, rowOffset int, x []float64, workers int) {
	if workers <= 1 || len(rows) < gemvParMinRows {
		GatherMulVecAddInto(dst, m, rows, rowOffset, x)
		return
	}
	if len(dst) != len(rows) {
		panic(fmt.Sprintf("tensor: GatherMulVecAddIntoPar dst[%d] for %d rows", len(dst), len(rows)))
	}
	if len(x) != m.Cols {
		panic(fmt.Sprintf("tensor: GatherMulVecAddIntoPar x[%d], m %dx%d", len(x), m.Rows, m.Cols))
	}
	par.ForChunks(len(rows), gemvParChunk, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] += Dot(m.Row(rows[i]+rowOffset), x)
		}
	})
}

// matMulATBRange computes aᵀ·b restricted to rows [lo, hi) of the shared
// leading dimension, with MatMulATB's inner-loop order.
func matMulATBRange(a, b *Matrix, lo, hi int) *Matrix {
	out := New(a.Cols, b.Cols)
	for k := lo; k < hi; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Row(i)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

package tensor

// This file holds the multi-user gather-GEMM kernels behind the batched
// dispersal and evaluation engines (models.BlockScorer): a block of query
// rows gathered from one matrix is scored against a block of candidate rows
// gathered from another, producing a dense query×candidate score matrix in
// one pass.
//
// Determinism contract: every output element is a single dot product
// accumulated in Dot's k-ascending order, so a multi-user GEMM score is
// bitwise-identical to the per-user GEMV (and per-item dot loop) it replaces.
// The kernels interleave four independent query accumulators per candidate
// row — four separate dependency chains hide floating-point add latency and
// each candidate row is loaded once per four queries — which changes neither
// any element's accumulation order nor the result.

import "fmt"

func checkGatherMat(dst *Matrix, a *Matrix, arows []int, b *Matrix, brows []int) {
	if dst.Rows != len(arows) || dst.Cols != len(brows) {
		panic(fmt.Sprintf("tensor: GatherMulMatInto dst %dx%d for %d×%d gathered rows",
			dst.Rows, dst.Cols, len(arows), len(brows)))
	}
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: GatherMulMatInto inner dims %d vs %d", a.Cols, b.Cols))
	}
}

// GatherMulMatInto computes the double-gathered GEMM
//
//	dst.Row(i)[j] = a.Row(arows[i]+aoff) · b.Row(brows[j]+boff)
//
// — every gathered query row of a scored against every gathered candidate row
// of b, with no intermediate gather matrices materialised. dst must be
// len(arows) × len(brows).
func GatherMulMatInto(dst *Matrix, a *Matrix, arows []int, aoff int, b *Matrix, brows []int, boff int) {
	checkGatherMat(dst, a, arows, b, brows)
	gatherMulMatRange(dst, a, arows, aoff, b, brows, boff, 0, len(brows), false)
}

// GatherMulMatAddInto is GatherMulMatInto accumulating into dst:
// dst.Row(i)[j] += a.Row(arows[i]+aoff)·b.Row(brows[j]+boff). Used by
// readouts that sum dot products over several embedding matrices (NGCF's
// layer concatenation).
func GatherMulMatAddInto(dst *Matrix, a *Matrix, arows []int, aoff int, b *Matrix, brows []int, boff int) {
	checkGatherMat(dst, a, arows, b, brows)
	gatherMulMatRange(dst, a, arows, aoff, b, brows, boff, 0, len(brows), true)
}

// gatherMulMatRange computes the kernel restricted to candidate columns
// [jlo, jhi). Each output element is written (or accumulated into) by exactly
// this call, with the dot running k-ascending — the partitioning is a
// scheduling choice that cannot change any value.
func gatherMulMatRange(dst *Matrix, a *Matrix, arows []int, aoff int, b *Matrix, brows []int, boff int, jlo, jhi int, add bool) {
	d := a.Cols
	i := 0
	for ; i+4 <= len(arows); i += 4 {
		// Reslicing every row to the shared inner length d lets the compiler
		// drop the per-element bounds checks (checkGatherMat guarantees
		// a.Cols == b.Cols; the reslices are free). The 4-query × 2-candidate
		// register block runs eight independent accumulator chains — enough
		// to hide FP-add latency — and loads each candidate row once per four
		// queries; none of it changes any element's k-ascending sum.
		r0 := a.Row(arows[i] + aoff)[:d]
		r1 := a.Row(arows[i+1] + aoff)[:d]
		r2 := a.Row(arows[i+2] + aoff)[:d]
		r3 := a.Row(arows[i+3] + aoff)[:d]
		d0, d1, d2, d3 := dst.Row(i), dst.Row(i+1), dst.Row(i+2), dst.Row(i+3)
		j := jlo
		for ; j+2 <= jhi; j += 2 {
			qa := b.Row(brows[j] + boff)[:d]
			qb := b.Row(brows[j+1] + boff)[:d]
			var s0a, s1a, s2a, s3a, s0b, s1b, s2b, s3b float64
			for k := 0; k < d; k++ {
				av, bv := qa[k], qb[k]
				s0a += r0[k] * av
				s1a += r1[k] * av
				s2a += r2[k] * av
				s3a += r3[k] * av
				s0b += r0[k] * bv
				s1b += r1[k] * bv
				s2b += r2[k] * bv
				s3b += r3[k] * bv
			}
			if add {
				d0[j] += s0a
				d1[j] += s1a
				d2[j] += s2a
				d3[j] += s3a
				d0[j+1] += s0b
				d1[j+1] += s1b
				d2[j+1] += s2b
				d3[j+1] += s3b
			} else {
				d0[j], d1[j], d2[j], d3[j] = s0a, s1a, s2a, s3a
				d0[j+1], d1[j+1], d2[j+1], d3[j+1] = s0b, s1b, s2b, s3b
			}
		}
		for ; j < jhi; j++ {
			q := b.Row(brows[j] + boff)[:d]
			var s0, s1, s2, s3 float64
			for k, qv := range q {
				s0 += r0[k] * qv
				s1 += r1[k] * qv
				s2 += r2[k] * qv
				s3 += r3[k] * qv
			}
			if add {
				d0[j] += s0
				d1[j] += s1
				d2[j] += s2
				d3[j] += s3
			} else {
				d0[j], d1[j], d2[j], d3[j] = s0, s1, s2, s3
			}
		}
	}
	for ; i < len(arows); i++ {
		r := a.Row(arows[i] + aoff)
		d := dst.Row(i)
		for j := jlo; j < jhi; j++ {
			s := Dot(r, b.Row(brows[j]+boff))
			if add {
				d[j] += s
			} else {
				d[j] = s
			}
		}
	}
}

func checkGatherPair(dst []float64, a *Matrix, arows []int, b *Matrix, brows []int) {
	if len(dst) != len(arows) || len(arows) != len(brows) {
		panic(fmt.Sprintf("tensor: GatherPairDotInto dst[%d] for %d×%d pairs",
			len(dst), len(arows), len(brows)))
	}
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: GatherPairDotInto inner dims %d vs %d", a.Cols, b.Cols))
	}
}

// GatherPairDotInto computes the element-wise gathered pair products
//
//	dst[p] = a.Row(arows[p]+aoff) · b.Row(brows[p]+boff)
//
// — the ragged counterpart of GatherMulMatInto, scoring many (query,
// candidate) pairs with arbitrary per-pair rows in one pass. Four pair
// accumulators run interleaved; each pair's dot still accumulates
// k-ascending, so results are bitwise-identical to per-pair Dot calls.
func GatherPairDotInto(dst []float64, a *Matrix, arows []int, aoff int, b *Matrix, brows []int, boff int) {
	checkGatherPair(dst, a, arows, b, brows)
	gatherPairDotRange(dst, a, arows, aoff, b, brows, boff, false)
}

// GatherPairDotAddInto is GatherPairDotInto accumulating into dst. Used by
// readouts that sum pair dots over several embedding matrices (NGCF's layer
// concatenation).
func GatherPairDotAddInto(dst []float64, a *Matrix, arows []int, aoff int, b *Matrix, brows []int, boff int) {
	checkGatherPair(dst, a, arows, b, brows)
	gatherPairDotRange(dst, a, arows, aoff, b, brows, boff, true)
}

func gatherPairDotRange(dst []float64, a *Matrix, arows []int, aoff int, b *Matrix, brows []int, boff int, add bool) {
	d := a.Cols
	p := 0
	for ; p+4 <= len(arows); p += 4 {
		// Reslicing every row to the shared inner length d lets the compiler
		// drop the per-element bounds checks; the four pair accumulators then
		// run as independent dependency chains in one fused k loop.
		a0 := a.Row(arows[p] + aoff)[:d]
		a1 := a.Row(arows[p+1] + aoff)[:d]
		a2 := a.Row(arows[p+2] + aoff)[:d]
		a3 := a.Row(arows[p+3] + aoff)[:d]
		b0 := b.Row(brows[p] + boff)[:d]
		b1 := b.Row(brows[p+1] + boff)[:d]
		b2 := b.Row(brows[p+2] + boff)[:d]
		b3 := b.Row(brows[p+3] + boff)[:d]
		var s0, s1, s2, s3 float64
		for k := 0; k < d; k++ {
			s0 += a0[k] * b0[k]
			s1 += a1[k] * b1[k]
			s2 += a2[k] * b2[k]
			s3 += a3[k] * b3[k]
		}
		if add {
			dst[p] += s0
			dst[p+1] += s1
			dst[p+2] += s2
			dst[p+3] += s3
		} else {
			dst[p], dst[p+1], dst[p+2], dst[p+3] = s0, s1, s2, s3
		}
	}
	for ; p < len(arows); p++ {
		s := Dot(a.Row(arows[p]+aoff), b.Row(brows[p]+boff))
		if add {
			dst[p] += s
		} else {
			dst[p] = s
		}
	}
}

// gemvParMinRows is the output length below which the parallel gather-GEMV
// variants stay serial: shorter candidate lists finish faster than the pool
// handoff costs, and the dispersal/eval hot loops already run on an outer
// worker pool. Purely a scheduling threshold — the Par kernels are
// bitwise-identical to their serial forms at any length and worker count. A
// var so tests can shrink it to force the parallel path on small inputs.
var gemvParMinRows = 16384

// gemvParChunk is the row-range granularity of the parallel GEMV variants.
const gemvParChunk = 4096

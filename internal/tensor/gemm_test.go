package tensor

import (
	"testing"

	"ptffedrec/internal/rng"
)

// randGatherFixture builds random embedding matrices plus gathered row index
// lists, covering offsets and remainder query counts (the 4-way interleave's
// tail path).
func randGatherFixture(seed uint64, nq, nc, rows, cols, off int) (a, b *Matrix, arows, brows []int) {
	s := rng.New(seed).Derive("gemm")
	a = New(rows, cols)
	b = New(rows+off, cols)
	for i := range a.Data {
		a.Data[i] = s.Float64()*2 - 1
	}
	for i := range b.Data {
		b.Data[i] = s.Float64()*2 - 1
	}
	arows = make([]int, nq)
	for i := range arows {
		arows[i] = s.Intn(rows)
	}
	brows = make([]int, nc)
	for i := range brows {
		brows[i] = s.Intn(rows)
	}
	return a, b, arows, brows
}

// TestGatherMulMatMatchesVec pins the multi-user GEMM's contract: every row
// equals the single-query GatherMulVecInto result bitwise, for query counts
// that exercise both the interleaved quad path and the remainder tail.
func TestGatherMulMatMatchesVec(t *testing.T) {
	for _, nq := range []int{1, 2, 3, 4, 5, 7, 8, 11} {
		a, b, arows, brows := randGatherFixture(uint64(nq), nq, 57, 40, 9, 3)
		dst := New(nq, len(brows))
		GatherMulMatInto(dst, a, arows, 0, b, brows, 3)
		want := make([]float64, len(brows))
		for i, ar := range arows {
			GatherMulVecInto(want, b, brows, 3, a.Row(ar))
			for j := range want {
				if dst.At(i, j) != want[j] {
					t.Fatalf("nq=%d: dst[%d][%d] = %v, want %v", nq, i, j, dst.At(i, j), want[j])
				}
			}
		}
	}
}

// TestGatherMulMatAddAccumulates pins the Add variant: two accumulating calls
// equal the element-wise sum of two plain calls in call order.
func TestGatherMulMatAddAccumulates(t *testing.T) {
	a, b, arows, brows := randGatherFixture(5, 6, 31, 20, 5, 0)
	a2, b2, arows2, brows2 := randGatherFixture(6, 6, 31, 20, 5, 0)
	copy(arows2, arows)
	copy(brows2, brows)

	dst := New(6, len(brows))
	GatherMulMatInto(dst, a, arows, 0, b, brows, 0)
	GatherMulMatAddInto(dst, a2, arows2, 0, b2, brows2, 0)

	one := New(6, len(brows))
	two := New(6, len(brows))
	GatherMulMatInto(one, a, arows, 0, b, brows, 0)
	GatherMulMatInto(two, a2, arows2, 0, b2, brows2, 0)
	for i := range dst.Data {
		if dst.Data[i] != one.Data[i]+two.Data[i] {
			t.Fatalf("elem %d: add variant %v != %v", i, dst.Data[i], one.Data[i]+two.Data[i])
		}
	}
}

// TestGemvParMatchesSerial pins the row-range parallel gather-GEMV variants:
// forcing the parallel path on small inputs (shrunken threshold) must
// reproduce the serial kernels bitwise for several worker counts.
func TestGemvParMatchesSerial(t *testing.T) {
	defer func(old int) { gemvParMinRows = old }(gemvParMinRows)
	gemvParMinRows = 8

	a, b, arows, brows := randGatherFixture(9, 5, 300, 80, 7, 2)
	x := a.Row(arows[0])

	wantGather := make([]float64, len(brows))
	GatherMulVecInto(wantGather, b, brows, 2, x)
	wantAdd := make([]float64, len(brows))
	copy(wantAdd, wantGather)
	GatherMulVecAddInto(wantAdd, b, brows, 2, x)

	for _, workers := range []int{1, 2, 3, 8} {
		gotG := make([]float64, len(brows))
		GatherMulVecIntoPar(gotG, b, brows, 2, x, workers)
		gotA := make([]float64, len(brows))
		copy(gotA, gotG)
		GatherMulVecAddIntoPar(gotA, b, brows, 2, x, workers)
		for i := range gotG {
			if gotG[i] != wantGather[i] || gotA[i] != wantAdd[i] {
				t.Fatalf("Gather[Add]Par workers=%d row %d mismatch", workers, i)
			}
		}
	}
}

// TestGatherMulMatShapePanics pins the shape checks.
func TestGatherMulMatShapePanics(t *testing.T) {
	a, b, arows, brows := randGatherFixture(11, 3, 4, 10, 5, 0)
	for name, fn := range map[string]func(){
		"dst rows": func() { GatherMulMatInto(New(2, len(brows)), a, arows, 0, b, brows, 0) },
		"dst cols": func() { GatherMulMatInto(New(3, 1), a, arows, 0, b, brows, 0) },
		"inner":    func() { GatherMulMatInto(New(3, len(brows)), a, arows, 0, New(4, 9), brows, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

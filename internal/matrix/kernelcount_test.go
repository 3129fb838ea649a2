//go:build kernelcount && amd64

package matrix

import "testing"

// TestFastPathIsThePath keeps the assembly kernels the path at the repo
// benchmark's block shapes, by counting entries into each assembly arm
// (kernelCalls, compiled in by the kernelcount tag only): at AVX-512 the
// dense/dense SDDMM of a super-tile — SuperTileCols(256, 64) = 8 mask blocks
// of 256x256 at density 0.005 against 256x64 factor blocks, one left block
// for all — is one kernel call per row range, which walks the eight
// patterns itself, so a serial call is 1 where a call per block made it 8;
// below AVX-512 the SDDMM is its portable twin and counts nothing; the CSR x
// dense product of those
// blocks is one row kernel call per row range, and so is the dense x CSR
// product, which walks the mask's rows inside the kernel; a 128x128 dense
// product is one assembly tile per (i, k, j) tile and nothing beside; the NMF
// kernel's log pass over that mask block's values is one strip kernel call,
// the AutoEncoder's sigmoid over a 128x128 block one per row; at AVX-512 the
// transposes GNMF builds — a member t(U) of a 256x64 factor block, and the
// 64x256 accumulator written back — are one 8x8-tile kernel call each. With
// the assembly switched off, nothing is counted. And at every level the
// machine has, the dense products of the benchmark's blocks — 256 and 128
// wide, the factors' 64, the twins' 64 and 32, left operand as stored and
// transposed — are micro-kernel strips alone: the scalar edge loop is never
// entered.
func TestFastPathIsThePath(t *testing.T) {
	mask := RandomSparse(benchBlock, benchBlock, 0.005, 1, 5, 4)
	u, v := RandomDense(benchBlock, benchK, 0.1, 0.9, 5), RandomDense(benchBlock, benchK, 0.1, 0.9, 6)
	a, b := RandomDense(128, 128, -1, 1, 7), RandomDense(128, 128, -1, 1, 8)
	run := func() (counts [numKernels]int64) {
		for k := range kernelCalls {
			kernelCalls[k].Store(0)
		}
		terms := make([]MaskedTerm, SuperTileCols(benchBlock, benchK))
		for j := range terms {
			m := RandomSparse(benchBlock, benchBlock, 0.005, 1, 5, int64(10+j))
			terms[j] = MaskedTerm{Mask: m, Acc: make([]float64, m.NNZ()), Bt: v}
		}
		MaskedMatMulGroupAccWith(nil, u, terms)
		counts[kernelSDDMM] = kernelCalls[kernelSDDMM].Load()
		MatMulTransAccWith(nil, NewDense(benchBlock, benchK), u, mask)
		MatMulAccWith(nil, NewDense(benchBlock, benchK), mask, v)
		counts[kernelSpMM] = kernelCalls[kernelSpMM].Load()
		MatMulAccWith(nil, NewDense(128, 128), a, b)
		counts[kernelGEMM] = kernelCalls[kernelGEMM].Load()
		counts[kernelGEMMEdge] = kernelCalls[kernelGEMMEdge].Load()
		var passes MaskedChain
		passes.Scalar(Add, 1e-3, false)
		passes.Unary(unaryFuncs["log"])
		passes.Run(nil, mask, make([]float64, mask.NNZ()))
		counts[kernelLog] = kernelCalls[kernelLog].Load()
		c := &Chain{Rows: 128, Cols: 128}
		c.Materialise(nil, c.Unary(unaryFuncs["sigmoid"], 10, c.Binary(Add, c.Owned(a.Clone()), c.Leaf(b))))
		counts[kernelSigmoid] = kernelCalls[kernelSigmoid].Load()
		Transpose(Transpose(u))
		counts[kernelTranspose] = kernelCalls[kernelTranspose].Load()
		return counts
	}
	// spmm: 1 for the CSR x dense product's one row range, plus 1 for the
	// dense x CSR product — one call per block and per spmmSplit columns, and
	// its benchK = 64 columns are one split — where a call per non-empty mask
	// row made it 1 + ~180.
	want := [numKernels]int64{
		kernelGEMM: (128 / tileI) * (128 / tileK) * (128 / tileJ), kernelSDDMM: 1, kernelSpMM: 1 + benchK/spmmSplit,
		kernelLog: 1, kernelSigmoid: 128, kernelTranspose: 2,
	}
	if simdLevel < levelAVX512 {
		want[kernelTranspose], want[kernelSDDMM] = 0, 0
	}
	if simdLevel < levelAVX2 {
		want = [numKernels]int64{}
	}
	if got := run(); got != want {
		t.Errorf("assembly kernel calls (gemm, gemm edge, sddmm, spmm, log, exp, sigmoid, transpose) = %v, want %v", got, want)
	}
	if simdLevel >= levelAVX2 {
		portably(func() {
			if got := run(); got != ([numKernels]int64{}) {
				t.Errorf("with the assembly off, %v calls were still counted", got)
			}
		})
	}

	edgeFree := func(t *testing.T, level int) {
		atLevel(level, func() {
			for _, sh := range []struct{ m, k, n int }{
				{256, 256, 256}, {256, 64, 256}, {64, 256, 64}, {64, 256, 256}, {128, 128, 256}, {128, 256, 128}, {64, 64, 64}, {32, 32, 32}, {32, 64, 32},
			} {
				kernelCalls[kernelGEMMEdge].Store(0)
				x, y := RandomDense(sh.m, sh.k, -1, 1, 1), RandomDense(sh.k, sh.n, -1, 1, 2)
				MatMulAccWith(nil, nil, x, y)
				MatMulTNInto(nil, NewDense(sh.m, sh.n), Transpose(x).(*Dense), y)
				if n := kernelCalls[kernelGEMMEdge].Load(); n != 0 {
					t.Errorf("%dx%dx%d: the edge loop was entered %d times", sh.m, sh.k, sh.n, n)
				}
			}
		})
	}
	t.Run("portable", func(t *testing.T) { edgeFree(t, levelPortable) })
	for _, lv := range asmLevels {
		t.Run(lv.name, func(t *testing.T) {
			if simdLevel < lv.level {
				t.Skip(lv.lacks)
			}
			edgeFree(t, lv.level)
		})
	}
}

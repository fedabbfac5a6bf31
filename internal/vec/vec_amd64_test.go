package vec

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestAVX2MatchesGo runs each AVX2 kernel and its Go row loop side by side
// on the same inputs and compares every output cell's bits. Rows start at
// offset 0 and 1 of their backing arrays (so the vector loads straddle
// alignment boundaries), a guard cell after each row must stay untouched,
// and several consecutive calls per case let the velocities build up under
// momentum 0 and 0.5, with a negative scale against exact zeros in x (the
// -0 products).
func TestAVX2MatchesGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("CPU or OS lacks AVX2 with YMM state; only the Go row loops run here")
	}
	rng := rand.New(rand.NewSource(3))
	scales := []float64{-0.75, 1.25, -2, 0.5}
	for _, n := range testLengths {
		for _, off := range []int{0, 1} {
			for _, m := range []float64{0, 0.5} {
				// row is cells [off, off+n) of a backing array with one
				// guard cell after the row.
				row := func(s []float64) []float64 { return s[off : off+n] }
				x := fill(rng, off+n+1)
				w, v, in := fill(rng, off+n+1), fill(rng, off+n+1), fill(rng, off+n+1)
				wG, vG, inG := clone(w), clone(v), clone(in)
				dst, dstG := clone(in), clone(in)
				for _, d := range scales {
					const lr = 0.01
					axpyAVX2(row(dst), row(x), d)
					axpyGo(row(dstG), row(x), d)
					sgdInputGradAVX2(row(w), row(v), row(x), row(in), d, lr, m)
					sgdInputGradGo(row(wG), row(vG), row(x), row(inG), d, lr, m)
					sameBits(t, "axpy dst", dst, dstG)
					sameBits(t, "sgdInputGrad gradIn", in, inG)
					sameBits(t, "sgdInputGrad w", w, wG)
					sameBits(t, "sgdInputGrad v", v, vG)
					sgdAVX2(row(w), row(v), row(x), -d, lr, m)
					sgdGo(row(wG), row(vG), row(x), -d, lr, m)
					sameBits(t, "sgd w", w, wG)
					sameBits(t, "sgd v", v, vG)
					g := fill(rng, off+n+1)
					gG := clone(g)
					stepAVX2(row(w), row(v), row(g), lr, m, d)
					stepGo(row(wG), row(vG), row(gG), lr, m, d)
					sameBits(t, "step w", w, wG)
					sameBits(t, "step v", v, vG)
					sameBits(t, "step g", g, gG)
				}
			}
		}
	}
}

// mulAddInputLens covers empty and odd inputs around one step and the
// AM-GAN's layer widths (48, 64, 133 and 155, odd and even).
var mulAddInputLens = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 48, 64, 133, 155}

// TestMulAddRowsAVX2MatchesGo runs MulAddRows' AVX2 path and its Go loop
// on the same inputs and compares every output's bits. Row counts 0–17
// take every remainder of the eight-row group, and of the four-row group
// after it, behind zero, one and two whole groups. Each weight row is
// its own allocation starting at offset 0 or 1 with a guard cell after
// it, z has a guard cell past its end, and the inputs hold ±0, negative
// values and sparse zeros. Two calls in a row check each chain continues
// from the z it was handed.
func TestMulAddRowsAVX2MatchesGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("CPU or OS lacks AVX2 with YMM state; only the Go row loops run here")
	}
	rng := rand.New(rand.NewSource(5))
	for rows := 0; rows <= 17; rows++ {
		for _, n := range mulAddInputLens {
			for _, off := range []int{0, 1} {
				W := make([][]float64, rows)
				backing := make([][]float64, rows)
				for o := range W {
					backing[o] = fill(rng, off+n+1)
					W[o] = backing[o][off : off+n]
				}
				want := make([][]float64, rows)
				for o := range backing {
					want[o] = clone(backing[o])
				}
				x := fill(rng, off+n+1)
				xWant := clone(x)
				z := fill(rng, off+rows+1)
				zG := clone(z)
				for call := 0; call < 2; call++ {
					mulAddRowsVec(z[off:off+rows], W, x[off:off+n])
					mulAddRowsGo(zG[off:off+rows], W, x[off:off+n])
					sameBits(t, fmt.Sprintf("%d rows × %d inputs, offset %d, call %d: z", rows, n, off, call), z, zG)
				}
				sameBits(t, "x", x, xWant)
				for o := range backing {
					sameBits(t, fmt.Sprintf("W[%d]", o), backing[o], want[o])
				}
			}
		}
	}
}

// BenchmarkMulAddRows times one matrix-vector product at each of the
// AM-GAN generator's layer shapes (inputs × outputs) on each path.
func BenchmarkMulAddRows(b *testing.B) {
	for _, shape := range [][2]int{{155, 64}, {64, 48}, {48, 133}} {
		in, out := shape[0], shape[1]
		rng := rand.New(rand.NewSource(6))
		W := make([][]float64, out)
		for o := range W {
			W[o] = fill(rng, in)
		}
		x, z := fill(rng, in), make([]float64, out)
		b.Run(fmt.Sprintf("%dx%d/go", in, out), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				clear(z)
				mulAddRowsGo(z, W, x)
			}
		})
		if !useAVX2 {
			continue
		}
		b.Run(fmt.Sprintf("%dx%d/avx2", in, out), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				clear(z)
				mulAddRowsVec(z, W, x)
			}
		})
	}
}

// BenchmarkSGDRow times one 155-weight SGD row (an AM-GAN generator input
// row) on each path.
func BenchmarkSGDRow(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	w, v, x := fill(rng, 155), fill(rng, 155), fill(rng, 155)
	b.Run("go", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sgdGo(w, v, x, 1e-3, 0.02, 0.5)
		}
	})
	if !useAVX2 {
		return
	}
	b.Run("avx2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sgdAVX2(w, v, x, 1e-3, 0.02, 0.5)
		}
	})
}

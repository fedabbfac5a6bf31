package vec

import (
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
				}
			}
		}
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

package vec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// testLengths covers empty rows, every tail length around one and two
// four-lane blocks, and the AM-GAN's row lengths (133 features, 155 with
// the class one-hot).
var testLengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 133, 155}

// fill returns n values from rng: about a quarter +0 and a quarter -0 (a
// sparse counter, and the signed zeros the 0 + rule is about), the rest
// spread over both signs.
func fill(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		switch rng.Intn(4) {
		case 0:
		case 1:
			s[i] = math.Copysign(0, -1)
		default:
			s[i] = rng.NormFloat64()
		}
	}
	return s
}

// sameBits fails the test unless got and want hold identical bit patterns.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestKernelsMatchScalar checks the kernels the package selected on this
// CPU against the update written out one cell at a time, bit for bit. The
// signed zeros in the inputs meet momentum 0, where a velocity's sign
// depends on the 0 + rule: -0 - lr*(0 + -0) is -0, -0 - lr*(-0) is +0.
func TestKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range testLengths {
		for _, m := range []float64{0, 0.5} {
			x, src := fill(rng, n), fill(rng, n)
			w, v, dst, in := fill(rng, n), fill(rng, n), fill(rng, n), fill(rng, n)
			w2, v2, dst2, in2 := clone(w), clone(v), clone(dst), clone(in)
			const d, lr = -0.75, 0.01

			Axpy(dst, src, d)
			SGDInputGrad(w, v, x, in, d, lr, m)
			for i := 0; i < n; i++ {
				dst2[i] += float64(d * src[i])
				in2[i] += float64(d * w2[i])
				g := 0 + float64(d*x[i])
				v2[i] = float64(m*v2[i]) - float64(lr*g)
				w2[i] += v2[i]
			}
			sameBits(t, "Axpy dst", dst, dst2)
			sameBits(t, "SGDInputGrad gradIn", in, in2)
			sameBits(t, "SGDInputGrad w", w, w2)
			sameBits(t, "SGDInputGrad v", v, v2)

			SGD(w, v, x, d, lr, m)
			for i := 0; i < n; i++ {
				g := 0 + float64(d*x[i])
				v2[i] = float64(m*v2[i]) - float64(lr*g)
				w2[i] += v2[i]
			}
			sameBits(t, "SGD w", w, w2)
			sameBits(t, "SGD v", v, v2)

			const inv = 1.0 / 3
			g := fill(rng, n)
			for i := 0; i < n; i++ {
				v2[i] = float64(m*v2[i]) - float64(float64(lr*g[i])*inv)
				w2[i] += v2[i]
			}
			Step(w, v, g, lr, m, inv)
			sameBits(t, "Step w", w, w2)
			sameBits(t, "Step v", v, v2)
			sameBits(t, "Step g", g, make([]float64, n))
		}
	}
}

// TestMulAddRowsMatchesScalar checks the MulAddRows path selected on this
// CPU, and the Go loop, against each output's dot product written out one
// row at a time, bit for bit, for 0–17 rows and odd and even inputs.
func TestMulAddRowsMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for rows := 0; rows <= 17; rows++ {
		for _, n := range []int{0, 1, 2, 7, 8, 9, 48, 133, 155} {
			W := make([][]float64, rows)
			for o := range W {
				W[o] = fill(rng, n)
			}
			x, z := fill(rng, n), fill(rng, rows)
			want, zGo := clone(z), clone(z)
			for o := range want {
				for i := 0; i < n; i++ {
					want[o] += float64(W[o][i] * x[i])
				}
			}
			MulAddRows(z, W, x)
			mulAddRowsGo(zGo, W, x)
			sameBits(t, fmt.Sprintf("%d rows × %d inputs: z", rows, n), z, want)
			sameBits(t, fmt.Sprintf("%d rows × %d inputs: Go loop z", rows, n), zGo, want)
		}
	}
}

// TestShortInputPanics checks a too-short input is caught before any
// kernel reads past it.
func TestShortInputPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"Axpy": func() { Axpy(make([]float64, 5), make([]float64, 4), 1) },
		"SGD":  func() { SGD(make([]float64, 5), make([]float64, 5), make([]float64, 4), 1, 1, 1) },
		"SGDInputGrad": func() {
			SGDInputGrad(make([]float64, 5), make([]float64, 5), make([]float64, 5), make([]float64, 4), 1, 1, 1)
		},
		"Step": func() { Step(make([]float64, 5), make([]float64, 5), make([]float64, 4), 1, 1, 1) },
		"MulAddRows few rows": func() {
			MulAddRows(make([]float64, 5), [][]float64{make([]float64, 4)}, make([]float64, 4))
		},
		"MulAddRows short row": func() {
			W := [][]float64{make([]float64, 6), make([]float64, 6), make([]float64, 5), make([]float64, 6)}
			MulAddRows(make([]float64, 4), W, make([]float64, 6))
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with a short input did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestKernelsAllocFree pins every exported kernel at zero allocations, so
// the ml allocation gates that call them stay at zero. The rows are local
// arrays: they stay on the stack only if no kernel lets its slices escape.
func TestKernelsAllocFree(t *testing.T) {
	for name, f := range map[string]func(){
		"Axpy": func() {
			var dst, src [9]float64
			Axpy(dst[:], src[:], 0.5)
		},
		"SGD": func() {
			var w, v, x [9]float64
			SGD(w[:], v[:], x[:], 0.5, 0.01, 0.5)
		},
		"SGDInputGrad": func() {
			var w, v, x, in [9]float64
			SGDInputGrad(w[:], v[:], x[:], in[:], 0.5, 0.01, 0.5)
		},
		"Step": func() {
			var w, v, g [9]float64
			Step(w[:], v[:], g[:], 0.01, 0.5, 0.25)
		},
		"MulAddRows": func() {
			var z [9]float64
			var x, w0, w1, w2, w3, w4, w5, w6, w7, w8 [9]float64
			W := [][]float64{w0[:], w1[:], w2[:], w3[:], w4[:], w5[:], w6[:], w7[:], w8[:]}
			MulAddRows(z[:], W, x[:])
		},
	} {
		if a := testing.AllocsPerRun(100, f); a != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, a)
		}
	}
}

func clone(s []float64) []float64 { return append([]float64(nil), s...) }

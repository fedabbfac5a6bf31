package ml

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refApply is the historical per-output activation, one switch per call.
func refApply(a Activation, x float64) float64 {
	switch a {
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	case LeakyReLU:
		if x < 0 {
			return 0.01 * x
		}
		return x
	case Sigmoid:
		return 1 / (1 + math.Exp(-x))
	case Tanh:
		return math.Tanh(x)
	}
	return x
}

// refForward is the historical scalar Layer.forward, four output rows at a
// time, writing into a fresh slice.
func refForward(l *Layer, x []float64) []float64 {
	W, b := l.W, l.B[:len(l.W)]
	y := make([]float64, len(W))
	o := 0
	for ; o+4 <= len(W); o += 4 {
		w0, w1, w2, w3 := W[o][:len(x)], W[o+1][:len(x)], W[o+2][:len(x)], W[o+3][:len(x)]
		z0, z1, z2, z3 := b[o], b[o+1], b[o+2], b[o+3]
		for i, xi := range x {
			z0 += w0[i] * xi
			z1 += w1[i] * xi
			z2 += w2[i] * xi
			z3 += w3[i] * xi
		}
		y[o], y[o+1], y[o+2], y[o+3] = refApply(l.Act, z0), refApply(l.Act, z1), refApply(l.Act, z2), refApply(l.Act, z3)
	}
	for ; o < len(W); o++ {
		w := W[o][:len(x)]
		z := b[o]
		for i, xi := range x {
			z += w[i] * xi
		}
		y[o] = refApply(l.Act, z)
	}
	return y
}

// refStep is the historical scalar Network.Step.
func refStep(n *Network, lr, momentum float64, batch int) {
	if batch < 1 {
		batch = 1
	}
	inv := 1 / float64(batch)
	for _, l := range n.Layers {
		b, gb, vb := l.B, l.gradB, l.velB
		for o, w := range l.W {
			gw, vw := l.gradW[o], l.velW[o]
			for i := range w {
				v := momentum*vw[i] - lr*gw[i]*inv
				vw[i] = v
				w[i] += v
				gw[i] = 0
			}
			v := momentum*vb[o] - lr*gb[o]*inv
			vb[o] = v
			b[o] += v
			gb[o] = 0
		}
	}
	n.pending = false
}

// forwardShapes adds to fusedShapes the AM-GAN generator and discriminator
// (155 inputs: 133 features and a 22-class one-hot) and a chain whose
// layer widths hit every remainder of the forward kernel's row groups.
var forwardShapes = append([][]int{
	{155, 64, 48, 133},
	{155, 16, 1},
	{9, 17, 16, 15, 14, 13, 12, 11, 10, 8, 7, 6, 5, 4, 3, 2, 1},
}, fusedShapes...)

// signedSparse fills v like sparseVector, but a third of the zeros are -0.
func signedSparse(rng *rand.Rand, v []float64) {
	sparseVector(rng, v)
	for i := range v {
		if v[i] == 0 && rng.Intn(3) == 0 {
			v[i] = math.Copysign(0, -1)
		}
	}
}

// TestForwardMatchesScalar checks every layer's output of Forward against
// the historical scalar forward, bit for bit, for every activation. Steps
// between the samples move the weights and biases off their initial
// values, and the inputs carry ±0, negative values and sparse zeros.
func TestForwardMatchesScalar(t *testing.T) {
	for _, sizes := range forwardShapes {
		for _, hidden := range allActs {
			for _, out := range allActs {
				n := New(7, sizes, hidden, out)
				rng := rand.New(rand.NewSource(int64(len(sizes))*13 + int64(hidden)*3 + int64(out)))
				x := make([]float64, sizes[0])
				g := make([]float64, sizes[len(sizes)-1])
				for step := 0; step < 4; step++ {
					signedSparse(rng, x)
					want := make([][]float64, len(n.Layers))
					in := x
					for li, l := range n.Layers {
						want[li] = refForward(l, in)
						in = want[li]
					}
					n.Forward(x)
					for li, l := range n.Layers {
						what := fmt.Sprintf("sizes %v act %d/%d step %d layer %d y", sizes, hidden, out, step, li)
						if err := bitsEqual(what, l.y, want[li]); err != nil {
							t.Fatal(err)
						}
					}
					signedSparse(rng, g)
					n.Descend(g, 0.05, 0.5)
				}
			}
		}
	}
}

// TestStepMatchesScalar runs twin networks through accumulated batches,
// one stepped by Step and one by the historical scalar loop, and requires
// identical bits in every parameter, velocity and cleared gradient.
func TestStepMatchesScalar(t *testing.T) {
	for _, sizes := range forwardShapes[:3] {
		for _, m := range []float64{0.9, 0} {
			a, b := New(11, sizes, LeakyReLU, Sigmoid), New(11, sizes, LeakyReLU, Sigmoid)
			rng := rand.New(rand.NewSource(int64(len(sizes))))
			x := make([]float64, sizes[0])
			g := make([]float64, sizes[len(sizes)-1])
			for round := 0; round < 4; round++ {
				for s := 0; s < 3; s++ {
					signedSparse(rng, x)
					signedSparse(rng, g)
					a.Forward(x)
					b.Forward(x)
					a.Backward(g)
					b.Backward(g)
				}
				a.Step(0.05, m, 3)
				refStep(b, 0.05, m, 3)
				if err := sameState(a, b); err != nil {
					t.Fatalf("sizes %v momentum %v round %d: %v", sizes, m, round, err)
				}
			}
		}
	}
}

// TestCloneCopiesParameters checks a clone has the original's weights and
// biases bit for bit, and fresh (zero) velocities and gradients.
func TestCloneCopiesParameters(t *testing.T) {
	n := New(5, []int{9, 17, 4, 1}, ReLU, Sigmoid)
	x := make([]float64, 9)
	signedSparse(rand.New(rand.NewSource(1)), x)
	n.Forward(x)
	n.Descend([]float64{0.5}, 0.1, 0.5)
	c := n.Clone()
	for li, l := range n.Layers {
		cl := c.Layers[li]
		if cl.In != l.In || cl.Out != l.Out || cl.Act != l.Act {
			t.Fatalf("layer %d: shape %d→%d act %d, want %d→%d act %d", li, cl.In, cl.Out, cl.Act, l.In, l.Out, l.Act)
		}
		for o := range l.W {
			if err := bitsEqual(fmt.Sprintf("layer %d W[%d]", li, o), cl.W[o], l.W[o]); err != nil {
				t.Fatal(err)
			}
			for i := range cl.velW[o] {
				if cl.velW[o][i] != 0 || cl.gradW[o][i] != 0 {
					t.Fatalf("layer %d: clone velW/gradW[%d][%d] not zero", li, o, i)
				}
			}
		}
		if err := bitsEqual(fmt.Sprintf("layer %d B", li), cl.B, l.B); err != nil {
			t.Fatal(err)
		}
	}
}

package ml

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The fused kernels must reproduce the two-call forms bit for bit, ±0
// included: every comparison below is on math.Float64bits.

var allActs = []Activation{Linear, ReLU, LeakyReLU, Sigmoid, Tanh}

// fusedShapes covers depths 1–4 with widths that are not multiples of 4,
// so both the four-row blocks and their tails run.
var fusedShapes = [][]int{
	{7, 5},
	{9, 6, 3},
	{11, 7, 5, 2},
	{6, 13, 9, 5, 3},
}

// sparseVector fills v with signed values, about a third of them exact
// zeros, so weight gradients d*x come out as -0 for negative deltas.
func sparseVector(rng *rand.Rand, v []float64) {
	for i := range v {
		if rng.Intn(3) == 0 {
			v[i] = 0
			continue
		}
		v[i] = rng.NormFloat64()
	}
}

// bitsEqual reports the first cell where a and b differ in any bit.
func bitsEqual(what string, a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s: len %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("%s[%d]: %v (%#x) vs %v (%#x)", what, i,
				a[i], math.Float64bits(a[i]), b[i], math.Float64bits(b[i]))
		}
	}
	return nil
}

// sameState compares every parameter, velocity, accumulated gradient and
// input-gradient cell of two networks of one shape.
func sameState(a, b *Network) error {
	for li := range a.Layers {
		la, lb := a.Layers[li], b.Layers[li]
		for o := range la.W {
			for _, c := range []struct {
				what string
				x, y []float64
			}{
				{"W", la.W[o], lb.W[o]},
				{"velW", la.velW[o], lb.velW[o]},
				{"gradW", la.gradW[o], lb.gradW[o]},
			} {
				if err := bitsEqual(fmt.Sprintf("layer %d %s[%d]", li, c.what, o), c.x, c.y); err != nil {
					return err
				}
			}
		}
		for _, c := range []struct {
			what string
			x, y []float64
		}{
			{"B", la.B, lb.B},
			{"velB", la.velB, lb.velB},
			{"gradB", la.gradB, lb.gradB},
			{"gradIn", la.gradIn, lb.gradIn},
		} {
			if err := bitsEqual(fmt.Sprintf("layer %d %s", li, c.what), c.x, c.y); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestDescendMatchesBackwardStep runs twin networks through consecutive
// one-sample steps, one with Backward+Step(lr, m, 1) and one with Descend,
// and requires identical bits after every step. Momentum 0 makes m·v a -0
// for every negative velocity, where a -0 gradient would flip the new
// velocity's sign.
func TestDescendMatchesBackwardStep(t *testing.T) {
	const lr = 0.05
	for _, sizes := range fusedShapes {
		for _, hidden := range allActs {
			for _, out := range allActs {
				for _, m := range []float64{0.5, 0} {
					ref := New(13, sizes, hidden, out)
					fused := New(13, sizes, hidden, out)
					rng := rand.New(rand.NewSource(int64(len(sizes))*31 + int64(hidden)*7 + int64(out)))
					x := make([]float64, sizes[0])
					g := make([]float64, sizes[len(sizes)-1])
					for step := 0; step < 12; step++ {
						sparseVector(rng, x)
						sparseVector(rng, g)
						ref.Forward(x)
						fused.Forward(x)
						ref.Backward(g)
						ref.Step(lr, m, 1)
						fused.Descend(g, lr, m)
						if err := sameState(ref, fused); err != nil {
							t.Fatalf("sizes %v act %d/%d momentum %v step %d: %v", sizes, hidden, out, m, step, err)
						}
					}
				}
			}
		}
	}
}

// refBackward is the historical Backward, one output row at a time: it
// accumulates parameter gradients and returns a fresh dL/dInput.
func refBackward(n *Network, gradOut []float64) []float64 {
	grad := append([]float64(nil), gradOut...)
	for li := len(n.Layers) - 1; li >= 0; li-- {
		l := n.Layers[li]
		next := make([]float64, l.In)
		for o := 0; o < l.Out; o++ {
			d := grad[o] * l.Act.deriv(l.y[o])
			for i := 0; i < l.In; i++ {
				l.gradW[o][i] += d * l.x[i]
				next[i] += d * l.W[o][i]
			}
			l.gradB[o] += d
		}
		grad = next
	}
	return grad
}

// clearGrads discards accumulated gradients, as the historical ClearGrads
// did after an input-gradient-only backward pass.
func clearGrads(n *Network) {
	for _, l := range n.Layers {
		for _, gw := range l.gradW {
			clear(gw)
		}
		clear(l.gradB)
	}
}

// TestInputGradMatchesBackwardClear checks InputGrad against the
// historical Backward return followed by ClearGrads, cell for cell, across
// training steps so weights and velocities are non-trivial.
func TestInputGradMatchesBackwardClear(t *testing.T) {
	for _, sizes := range fusedShapes {
		for _, hidden := range allActs {
			for _, out := range allActs {
				ref := New(21, sizes, hidden, out)
				fused := New(21, sizes, hidden, out)
				rng := rand.New(rand.NewSource(int64(len(sizes))*17 + int64(hidden)*5 + int64(out)))
				x := make([]float64, sizes[0])
				g := make([]float64, sizes[len(sizes)-1])
				for step := 0; step < 8; step++ {
					sparseVector(rng, x)
					sparseVector(rng, g)
					ref.Forward(x)
					fused.Forward(x)
					want := refBackward(ref, g)
					clearGrads(ref)
					got := fused.InputGrad(g)
					if err := bitsEqual("dL/dInput", want, got); err != nil {
						t.Fatalf("sizes %v act %d/%d step %d: %v", sizes, hidden, out, step, err)
					}
					for li := range ref.Layers {
						copy(ref.Layers[li].gradIn, fused.Layers[li].gradIn) // scratch, not state
					}
					if err := sameState(ref, fused); err != nil {
						t.Fatalf("sizes %v act %d/%d step %d: %v", sizes, hidden, out, step, err)
					}
					// Move the weights on so the next step's gradients differ.
					ref.Backward(g)
					ref.Step(0.05, 0.5, 1)
					fused.Backward(g)
					fused.Step(0.05, 0.5, 1)
				}
			}
		}
	}
}

// TestInputGradLeavesPendingGradients checks that an InputGrad between
// Backward and Step does not disturb the accumulated gradients.
func TestInputGradLeavesPendingGradients(t *testing.T) {
	sizes := []int{6, 13, 9, 5, 3}
	a := New(4, sizes, ReLU, Sigmoid)
	b := New(4, sizes, ReLU, Sigmoid)
	rng := rand.New(rand.NewSource(2))
	x := make([]float64, sizes[0])
	g := make([]float64, sizes[len(sizes)-1])
	sparseVector(rng, x)
	sparseVector(rng, g)
	a.Forward(x)
	b.Forward(x)
	a.Backward(g)
	b.Backward(g)
	a.InputGrad(g)
	for li := range a.Layers {
		copy(b.Layers[li].gradIn, a.Layers[li].gradIn)
	}
	if err := sameState(a, b); err != nil {
		t.Fatal(err)
	}
}

// TestDescendPanicsWithPendingGradients pins the guard: Descend after an
// unstepped Backward would silently drop the accumulated gradients.
func TestDescendPanicsWithPendingGradients(t *testing.T) {
	n := New(1, []int{3, 4, 1}, LeakyReLU, Sigmoid)
	x := []float64{0.2, 0, -0.4}
	g := []float64{0.3}
	n.Forward(x)
	n.Backward(g)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Descend with pending gradients did not panic")
			}
		}()
		n.Descend(g, 0.1, 0.5)
	}()
	n.Step(0.1, 0.5, 1)
	n.Descend(g, 0.1, 0.5) // gradients applied: must not panic
}

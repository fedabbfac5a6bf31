package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestForwardShapes(t *testing.T) {
	n := New(1, []int{4, 8, 3}, ReLU, Sigmoid)
	if n.InputSize() != 4 || n.OutputSize() != 3 {
		t.Fatalf("sizes = %d/%d", n.InputSize(), n.OutputSize())
	}
	out := n.Forward([]float64{1, 2, 3, 4})
	if len(out) != 3 {
		t.Fatalf("output len = %d", len(out))
	}
	for _, v := range out {
		if v < 0 || v > 1 {
			t.Fatalf("sigmoid output %v out of range", v)
		}
	}
	if n.NumParams() != 4*8+8+8*3+3 {
		t.Fatalf("params = %d", n.NumParams())
	}
}

func TestDeterministicConstruction(t *testing.T) {
	a := New(7, []int{3, 5, 1}, Tanh, Sigmoid)
	b := New(7, []int{3, 5, 1}, Tanh, Sigmoid)
	x := []float64{0.1, -0.5, 2}
	oa, ob := a.Forward(x), b.Forward(x)
	for i := range oa {
		if oa[i] != ob[i] {
			t.Fatal("same seed, different networks")
		}
	}
	c := New(8, []int{3, 5, 1}, Tanh, Sigmoid)
	oc := c.Forward(x)
	if oc[0] == oa[0] {
		t.Fatal("different seeds produced identical output")
	}
}

// TestGradientCheck verifies backprop against finite differences — the
// strongest possible correctness test for the ML substrate.
func TestGradientCheck(t *testing.T) {
	n := New(3, []int{4, 6, 5, 2}, Tanh, Sigmoid)
	rng := rand.New(rand.NewSource(9))
	x := make([]float64, 4)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	target := []float64{1, 0}

	loss := func() float64 {
		pred := n.Forward(x)
		g := make([]float64, len(pred))
		return BCE(pred, target, g)
	}

	// Analytic gradients.
	pred := n.Forward(x)
	grad := make([]float64, len(pred))
	BCE(pred, target, grad)
	n.Backward(grad)

	const eps = 1e-5
	checked := 0
	for _, l := range n.Layers {
		for o := 0; o < l.Out; o += 2 {
			for i := 0; i < l.In; i += 2 {
				orig := l.W[o][i]
				l.W[o][i] = orig + eps
				up := loss()
				l.W[o][i] = orig - eps
				down := loss()
				l.W[o][i] = orig
				numeric := (up - down) / (2 * eps)
				analytic := l.gradW[o][i]
				if math.Abs(numeric-analytic) > 1e-4*(1+math.Abs(numeric)) {
					t.Errorf("gradW[%d][%d]: analytic %v, numeric %v", o, i, analytic, numeric)
				}
				checked++
			}
		}
	}
	if checked < 10 {
		t.Fatalf("only %d gradients checked", checked)
	}
}

func TestInputGradientCheck(t *testing.T) {
	// The GAN depends on dL/dInput flowing through the discriminator.
	n := New(5, []int{3, 7, 1}, LeakyReLU, Sigmoid)
	x := []float64{0.3, -0.2, 0.9}
	target := []float64{1}
	pred := n.Forward(x)
	grad := make([]float64, 1)
	BCE(pred, target, grad)
	gin := n.InputGrad(grad)
	if len(gin) != 3 {
		t.Fatalf("input gradient len = %d", len(gin))
	}
	const eps = 1e-5
	for i := range x {
		orig := x[i]
		x[i] = orig + eps
		p := n.Forward(x)
		g := make([]float64, 1)
		up := BCE(p, target, g)
		x[i] = orig - eps
		p = n.Forward(x)
		down := BCE(p, target, g)
		x[i] = orig
		numeric := (up - down) / (2 * eps)
		if math.Abs(numeric-gin[i]) > 1e-4*(1+math.Abs(numeric)) {
			t.Errorf("dL/dx[%d]: analytic %v, numeric %v", i, gin[i], numeric)
		}
	}
}

func TestLearnsXOR(t *testing.T) {
	n := New(11, []int{2, 8, 1}, Tanh, Sigmoid)
	data := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	labels := []float64{0, 1, 1, 0}
	for epoch := 0; epoch < 4000; epoch++ {
		for i, x := range data {
			n.TrainSample(x, []float64{labels[i]})
		}
		n.Step(0.5, 0.9, len(data))
	}
	for i, x := range data {
		p := n.Forward(x)[0]
		if (p > 0.5) != (labels[i] > 0.5) {
			t.Fatalf("XOR not learned: f(%v) = %v, want %v", x, p, labels[i])
		}
	}
}

func TestLearnsLinearSeparation(t *testing.T) {
	// A single-layer (perceptron-like) net must learn a linear boundary.
	n := New(3, []int{4, 1}, Linear, Sigmoid)
	rng := rand.New(rand.NewSource(4))
	sample := func() ([]float64, float64) {
		x := make([]float64, 4)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		label := 0.0
		if 2*x[0]-x[1]+0.5*x[2] > 0 {
			label = 1
		}
		return x, label
	}
	for epoch := 0; epoch < 300; epoch++ {
		for b := 0; b < 32; b++ {
			x, y := sample()
			n.TrainSample(x, []float64{y})
		}
		n.Step(0.3, 0.5, 32)
	}
	correct := 0
	for i := 0; i < 500; i++ {
		x, y := sample()
		if (n.Forward(x)[0] > 0.5) == (y > 0.5) {
			correct++
		}
	}
	if correct < 475 {
		t.Fatalf("linear separation accuracy %d/500, want >= 475", correct)
	}
}

func TestCloneIndependent(t *testing.T) {
	n := New(2, []int{2, 3, 1}, ReLU, Sigmoid)
	c := n.Clone()
	x := []float64{1, -1}
	if n.Forward(x)[0] != c.Forward(x)[0] {
		t.Fatal("clone differs from original")
	}
	n.TrainSample(x, []float64{1})
	n.Step(0.5, 0, 1)
	if n.Forward(x)[0] == c.Forward(x)[0] {
		t.Fatal("training the original changed the clone")
	}
}

func TestBCEGradientDirection(t *testing.T) {
	pred := []float64{0.9}
	grad := make([]float64, 1)
	BCE(pred, []float64{1}, grad)
	if grad[0] >= 0 {
		t.Fatal("BCE gradient should push prediction up toward target 1")
	}
	BCE(pred, []float64{0}, grad)
	if grad[0] <= 0 {
		t.Fatal("BCE gradient should push prediction down toward target 0")
	}
}

func TestMSEZeroAtTarget(t *testing.T) {
	pred := []float64{0.25, 0.5}
	grad := make([]float64, 2)
	if loss := MSE(pred, []float64{0.25, 0.5}, grad); loss != 0 {
		t.Fatalf("MSE at target = %v", loss)
	}
	if grad[0] != 0 || grad[1] != 0 {
		t.Fatal("gradient nonzero at minimum")
	}
}

func TestActivationRanges(t *testing.T) {
	apply := func(a Activation, x float64) float64 {
		z := []float64{x}
		a.applyAll(z)
		return z[0]
	}
	for _, x := range []float64{-5, -0.5, 0, 0.5, 5} {
		if y := apply(Sigmoid, x); y <= 0 || y >= 1 {
			t.Errorf("sigmoid(%v) = %v", x, y)
		}
		if y := apply(Tanh, x); y <= -1 || y >= 1 {
			t.Errorf("tanh(%v) = %v", x, y)
		}
		if y := apply(ReLU, x); y < 0 {
			t.Errorf("relu(%v) = %v", x, y)
		}
		if x < 0 && apply(LeakyReLU, x) >= 0 {
			t.Errorf("leakyrelu(%v) = %v", x, apply(LeakyReLU, x))
		}
	}
}

func TestStepZeroBatchSafe(t *testing.T) {
	n := New(1, []int{2, 1}, Linear, Sigmoid)
	n.Step(0.1, 0.9, 0) // must not divide by zero
}

func TestProjectNonNegative(t *testing.T) {
	n := New(5, []int{3, 4, 1}, ReLU, Sigmoid)
	n.ProjectNonNegative()
	for _, l := range n.Layers {
		for o := range l.W {
			for i := range l.W[o] {
				if l.W[o][i] < 0 {
					t.Fatalf("negative weight %v after projection", l.W[o][i])
				}
			}
		}
	}
	// Forward still works and output stays in range.
	out := n.Forward([]float64{1, 0.5, 0.2})
	if out[0] < 0 || out[0] > 1 {
		t.Fatalf("output %v out of range", out[0])
	}
}

func TestMonotoneScoreProperty(t *testing.T) {
	// Property: with non-negative weights, raising any input never
	// lowers the sigmoid output of a single-layer net.
	n := New(6, []int{4, 1}, Linear, Sigmoid)
	n.ProjectNonNegative()
	f := func(a, b, c, d float64, bump float64) bool {
		abs := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0
			}
			return math.Mod(math.Abs(x), 1)
		}
		x := []float64{abs(a), abs(b), abs(c), abs(d)}
		base := n.Forward(x)[0]
		x[0] += math.Abs(math.Mod(bump, 1))
		raised := n.Forward(x)[0]
		return raised >= base-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestInputGradKeepsWeights(t *testing.T) {
	n := New(2, []int{2, 1}, Linear, Sigmoid)
	x := []float64{1, -1}
	before := n.Forward(x)[0]
	n.InputGrad([]float64{0.5})
	n.Step(1.0, 0, 1) // no gradients accumulated: weights must not move
	if after := n.Forward(x)[0]; after != before {
		t.Fatalf("InputGrad accumulated parameter gradients: %v -> %v", before, after)
	}
}

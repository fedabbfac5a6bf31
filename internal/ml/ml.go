// Package ml is a small, dependency-free neural-network library: dense
// layers of arbitrary depth, sigmoid/tanh/ReLU activations, backpropagation
// and SGD with momentum. It plays the role Keras and FANN play in the paper:
// the AM-GAN generator and discriminator, the EVAX/PerSpectron detectors and
// the deep detectors of Figure 20 are all built on it.
//
// Everything is deterministic given the construction seed.
package ml

import (
	"fmt"
	"math"
	"math/rand"

	"evax/internal/vec"
)

// Activation selects a layer nonlinearity.
type Activation int

const (
	// Linear is the identity.
	Linear Activation = iota
	// ReLU is max(0, x).
	ReLU
	// LeakyReLU is x for x>0, 0.01x otherwise (GAN-friendly).
	LeakyReLU
	// Sigmoid is 1/(1+e^-x).
	Sigmoid
	// Tanh is the hyperbolic tangent.
	Tanh
)

// applyAll replaces every pre-activation z[o] with a(z[o]): one switch per
// layer, then a tight loop per activation.
func (a Activation) applyAll(z []float64) {
	switch a {
	case ReLU:
		for o, x := range z {
			if x < 0 {
				z[o] = 0
			}
		}
	case LeakyReLU:
		for o, x := range z {
			if x < 0 {
				z[o] = 0.01 * x
			}
		}
	case Sigmoid:
		for o, x := range z {
			z[o] = 1 / (1 + math.Exp(-x))
		}
	case Tanh:
		for o, x := range z {
			z[o] = math.Tanh(x)
		}
	}
}

// deriv computes the activation derivative given the *output* value y.
func (a Activation) deriv(y float64) float64 {
	switch a {
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	case LeakyReLU:
		if y > 0 {
			return 1
		}
		return 0.01
	case Sigmoid:
		return y * (1 - y)
	case Tanh:
		return 1 - y*y
	}
	return 1
}

// Layer is one dense layer.
type Layer struct {
	In, Out int
	Act     Activation
	// W[o][i] is the weight from input i to output o; B[o] the bias.
	W [][]float64
	B []float64

	// Caches for backprop (single sample at a time).
	x      []float64 // last input
	y      []float64 // last output (post-activation)
	delta  []float64 // dL/dz for the last sample
	gradIn []float64 // dL/dInput for the last backward pass

	// Accumulated gradients and momentum.
	gradW [][]float64
	gradB []float64
	velW  [][]float64
	velB  []float64
}

// Network is a feed-forward stack of dense layers.
type Network struct {
	Layers []*Layer

	lossGrad []float64 // TrainSample's dL/dPred scratch
	// pending is set by Backward and cleared by Step: accumulated
	// gradients are waiting to be applied, so Descend must not run.
	pending bool
}

// New creates a network with the given layer sizes, e.g. sizes =
// [145, 64, 1] builds 145→64→1. hidden and out select activations. Weights
// use scaled (He/Xavier-style) initialization from the seeded RNG.
func New(seed int64, sizes []int, hidden, out Activation) *Network {
	if len(sizes) < 2 {
		panic(fmt.Sprintf("ml: need at least 2 sizes, got %v", sizes))
	}
	rng := rand.New(rand.NewSource(seed))
	n := &Network{}
	for l := 0; l+1 < len(sizes); l++ {
		act := hidden
		if l == len(sizes)-2 {
			act = out
		}
		n.Layers = append(n.Layers, newLayer(rng, sizes[l], sizes[l+1], act))
	}
	return n
}

// newLayer allocates a layer and draws its weights from rng, row by row.
func newLayer(rng *rand.Rand, in, out int, act Activation) *Layer {
	l := allocLayer(in, out, act)
	scale := math.Sqrt(2 / float64(in))
	if act == Sigmoid || act == Tanh || act == Linear {
		scale = math.Sqrt(1 / float64(in))
	}
	for _, w := range l.W {
		for i := range w {
			w[i] = rng.NormFloat64() * scale
		}
	}
	return l
}

// allocLayer allocates a layer with zero weights, biases and buffers.
func allocLayer(in, out int, act Activation) *Layer {
	l := &Layer{In: in, Out: out, Act: act}
	l.W = make([][]float64, out)
	l.gradW = make([][]float64, out)
	l.velW = make([][]float64, out)
	for o := 0; o < out; o++ {
		l.W[o] = make([]float64, in)
		l.gradW[o] = make([]float64, in)
		l.velW[o] = make([]float64, in)
	}
	l.B = make([]float64, out)
	l.gradB = make([]float64, out)
	l.velB = make([]float64, out)
	l.x = make([]float64, in)
	l.y = make([]float64, out)
	l.delta = make([]float64, out)
	l.gradIn = make([]float64, in)
	return l
}

// InputSize returns the network's input dimensionality.
func (n *Network) InputSize() int { return n.Layers[0].In }

// OutputSize returns the network's output dimensionality.
func (n *Network) OutputSize() int { return n.Layers[len(n.Layers)-1].Out }

// Forward runs one sample through the network, returning the output slice
// (owned by the network; copy if retaining).
//
//evaxlint:hotpath
func (n *Network) Forward(x []float64) []float64 {
	for _, l := range n.Layers {
		copy(l.x, x)
		l.forward(x)
		x = l.y
	}
	return x
}

// forward computes l.y from x: the biases, one vec.MulAddRows call for
// the weights, then the activation. Each output's sum accumulates bias
// first, then inputs in order, exactly as one row at a time would; the
// kernel only runs several outputs' chains side by side (DESIGN.md §7).
//
//evaxlint:hotpath
func (l *Layer) forward(x []float64) {
	y := l.y[:len(l.W)]
	copy(y, l.B)
	vec.MulAddRows(y, l.W, x)
	l.Act.applyAll(y)
}

// Backward backpropagates dL/dOutput for the most recent Forward sample,
// accumulating parameter gradients for the next Step. It computes no
// gradient for the network input: accumulating callers never read it, and
// InputGrad computes it on its own.
func (n *Network) Backward(gradOut []float64) {
	grad := gradOut
	for li := len(n.Layers) - 1; li >= 0; li-- {
		l := n.Layers[li]
		l.setDelta(grad)
		l.accumulate()
		if li == 0 {
			break
		}
		l.inputGrad()
		grad = l.gradIn
	}
	n.pending = true
}

// InputGrad backpropagates dL/dOutput for the most recent Forward sample
// and returns dL/dInput, leaving parameter gradients untouched (the
// gradient the GAN pulls through a frozen discriminator). Like Forward's
// output, the returned slice is owned by the network and overwritten by
// the next InputGrad; copy it if retaining.
//
//evaxlint:hotpath
func (n *Network) InputGrad(gradOut []float64) []float64 {
	grad := gradOut
	for li := len(n.Layers) - 1; li >= 0; li-- {
		l := n.Layers[li]
		l.setDelta(grad)
		l.inputGrad()
		grad = l.gradIn
	}
	return grad
}

// Descend is Backward followed by Step(lr, momentum, 1), fused into one
// pass per layer that never touches the accumulated gradients. Every
// weight, bias and velocity comes out bit-identical to the two-call form
// (DESIGN.md §7). It panics if Backward has accumulated gradients that no
// Step has applied yet.
//
//evaxlint:hotpath
func (n *Network) Descend(gradOut []float64, lr, momentum float64) {
	if n.pending {
		panic("ml: Descend with accumulated gradients pending; Step them first")
	}
	grad := gradOut
	for li := len(n.Layers) - 1; li >= 0; li-- {
		l := n.Layers[li]
		l.setDelta(grad)
		if li == 0 {
			l.descend(lr, momentum)
			break
		}
		l.descendInputGrad(lr, momentum)
		grad = l.gradIn
	}
}

// setDelta writes dL/dz into l.delta from grad = dL/dOutput. grad is fully
// consumed here, so the layer's gradIn buffer can be reused even if the
// caller passed it back in.
func (l *Layer) setDelta(grad []float64) {
	delta := l.delta
	y := l.y[:len(delta)]
	grad = grad[:len(delta)]
	for o := range delta {
		delta[o] = grad[o] * l.Act.deriv(y[o])
	}
}

// accumulate adds the parameter gradients for l.delta, one output row per
// kernel call. Every gradW and gradB cell receives its one addition.
func (l *Layer) accumulate() {
	delta, x := l.delta, l.x
	gW, gb := l.gradW[:len(delta)], l.gradB[:len(delta)]
	for o, d := range delta {
		vec.Axpy(gW[o], x, d)
		gb[o] += d
	}
}

// inputGrad writes dL/dInput for l.delta into l.gradIn. Every gradIn[i]
// receives its additions in output order starting from zero.
//
//evaxlint:hotpath
func (l *Layer) inputGrad() {
	delta, next := l.delta, l.gradIn
	W := l.W[:len(delta)]
	clear(next)
	for o, d := range delta {
		vec.Axpy(next, W[o], d)
	}
}

// sgd is Step's update of one parameter p with velocity v for a one-sample
// gradient g.
func sgd(p, v, g, lr, momentum float64) (float64, float64) {
	v = momentum*v - lr*g
	return p + v, v
}

// descend applies one SGD step for l.delta directly, one output row per
// kernel call. Each gradient is formed as Step would find it in a cleared
// cell, 0 + d*x, so a -0 product still updates the velocity as +0.
//
//evaxlint:hotpath
func (l *Layer) descend(lr, momentum float64) {
	delta, x := l.delta, l.x
	W, vW := l.W[:len(delta)], l.velW[:len(delta)]
	for o, d := range delta {
		vec.SGD(W[o], vW[o], x, d, lr, momentum)
	}
	l.descendBias(lr, momentum)
}

// descendInputGrad is inputGrad and descend in one pass: each weight is
// read for dL/dInput before its own update, and every gradIn[i] still
// receives its additions in output order starting from zero.
//
//evaxlint:hotpath
func (l *Layer) descendInputGrad(lr, momentum float64) {
	delta, x, next := l.delta, l.x, l.gradIn[:len(l.x)]
	W, vW := l.W[:len(delta)], l.velW[:len(delta)]
	clear(next)
	for o, d := range delta {
		vec.SGDInputGrad(W[o], vW[o], x, next, d, lr, momentum)
	}
	l.descendBias(lr, momentum)
}

// descendBias is descend's update of the biases.
func (l *Layer) descendBias(lr, momentum float64) {
	delta := l.delta
	b, vb := l.B[:len(delta)], l.velB[:len(delta)]
	for o, d := range delta {
		b[o], vb[o] = sgd(b[o], vb[o], 0+d, lr, momentum)
	}
}

// Step applies accumulated gradients with SGD + momentum and clears them,
// one vec.Step call per weight row and one for the biases. batch is the
// number of samples accumulated since the last Step.
func (n *Network) Step(lr, momentum float64, batch int) {
	if batch < 1 {
		batch = 1
	}
	inv := 1 / float64(batch)
	for _, l := range n.Layers {
		gW, vW := l.gradW[:len(l.W)], l.velW[:len(l.W)]
		for o, w := range l.W {
			vec.Step(w, vW[o], gW[o], lr, momentum, inv)
		}
		vec.Step(l.B, l.velB, l.gradB, lr, momentum, inv)
	}
	n.pending = false
}

// ProjectNonNegative clamps every weight to be >= 0 (biases unconstrained).
// Projected after each optimizer step, this trains a monotone classifier:
// for detectors over activity counters it guarantees that *more* anomalous
// activity never lowers the suspicion score — closing the
// negative-weight evasion channel adversarial perturbations exploit.
func (n *Network) ProjectNonNegative() {
	for _, l := range n.Layers {
		for o := 0; o < l.Out; o++ {
			for i := 0; i < l.In; i++ {
				if l.W[o][i] < 0 {
					l.W[o][i] = 0
				}
			}
		}
	}
}

// Clone deep-copies the network parameters (caches and momentum excluded).
func (n *Network) Clone() *Network {
	c := &Network{}
	for _, l := range n.Layers {
		nl := allocLayer(l.In, l.Out, l.Act)
		for o := range l.W {
			copy(nl.W[o], l.W[o])
		}
		copy(nl.B, l.B)
		c.Layers = append(c.Layers, nl)
	}
	return c
}

// NumParams counts trainable parameters.
func (n *Network) NumParams() int {
	total := 0
	for _, l := range n.Layers {
		total += l.In*l.Out + l.Out
	}
	return total
}

// MSE returns the mean squared error and writes dL/dPred into grad.
func MSE(pred, target, grad []float64) float64 {
	var loss float64
	for i := range pred {
		d := pred[i] - target[i]
		loss += d * d
		grad[i] = 2 * d / float64(len(pred))
	}
	return loss / float64(len(pred))
}

// BCE returns binary cross-entropy loss and writes dL/dPred into grad.
// Predictions are clamped away from {0,1} for numerical stability.
func BCE(pred, target, grad []float64) float64 {
	const eps = 1e-7
	var loss float64
	for i := range pred {
		p := math.Min(math.Max(pred[i], eps), 1-eps)
		t := target[i]
		loss += -(t*math.Log(p) + (1-t)*math.Log(1-p))
		grad[i] = (p - t) / (p * (1 - p)) / float64(len(pred))
	}
	return loss / float64(len(pred))
}

// TrainSample is one forward/backward/no-step pass with BCE loss; callers
// batch several and then Step.
func (n *Network) TrainSample(x, target []float64) float64 {
	pred := n.Forward(x)
	if len(n.lossGrad) != len(pred) {
		n.lossGrad = make([]float64, len(pred))
	}
	loss := BCE(pred, target, n.lossGrad)
	n.Backward(n.lossGrad)
	return loss
}

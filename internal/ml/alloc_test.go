package ml

import "testing"

func allocNet() *Network {
	n := New(3, []int{9, 7, 5, 1}, LeakyReLU, Sigmoid)
	x := make([]float64, 9)
	for i := range x {
		x[i] = float64(i) / 9
	}
	n.Forward(x)
	return n
}

// TestBackwardAllocFree pins Backward at zero allocations: every gradient
// lands in a buffer the network owns.
func TestBackwardAllocFree(t *testing.T) {
	n := allocNet()
	grad := []float64{0.5}
	if a := testing.AllocsPerRun(100, func() { n.Backward(grad) }); a != 0 {
		t.Fatalf("Backward allocates %v times per call, want 0", a)
	}
}

// TestInputGradAllocFree pins InputGrad at zero allocations: the input
// gradient lands in a buffer the network owns.
func TestInputGradAllocFree(t *testing.T) {
	n := allocNet()
	grad := []float64{0.5}
	if a := testing.AllocsPerRun(100, func() { n.InputGrad(grad) }); a != 0 {
		t.Fatalf("InputGrad allocates %v times per call, want 0", a)
	}
}

// TestDescendAllocFree pins Descend at zero allocations.
func TestDescendAllocFree(t *testing.T) {
	n := allocNet()
	grad := []float64{0.5}
	if a := testing.AllocsPerRun(100, func() { n.Descend(grad, 0.01, 0.5) }); a != 0 {
		t.Fatalf("Descend allocates %v times per call, want 0", a)
	}
}

// TestForwardAllocFree pins Forward at zero allocations. The 20→17→9→1
// shape puts whole row groups, a four-row group and leftover rows through
// the forward kernel, which allocNet's narrow layers would not.
func TestForwardAllocFree(t *testing.T) {
	n := New(3, []int{20, 17, 9, 1}, LeakyReLU, Sigmoid)
	x := make([]float64, 20)
	for i := range x {
		x[i] = float64(i) / 20
	}
	if a := testing.AllocsPerRun(100, func() { n.Forward(x) }); a != 0 {
		t.Fatalf("Forward allocates %v times per call, want 0", a)
	}
}

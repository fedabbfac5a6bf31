package ml

import "testing"

// TestBackwardAllocFree pins Backward at zero allocations: the input
// gradient lands in a buffer the network owns.
func TestBackwardAllocFree(t *testing.T) {
	n := New(3, []int{9, 7, 5, 1}, LeakyReLU, Sigmoid)
	x := make([]float64, 9)
	for i := range x {
		x[i] = float64(i) / 9
	}
	n.Forward(x)
	grad := []float64{0.5}
	if a := testing.AllocsPerRun(100, func() { n.Backward(grad) }); a != 0 {
		t.Fatalf("Backward allocates %v times per call, want 0", a)
	}
}

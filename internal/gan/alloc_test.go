package gan

import "testing"

// TestTrainStepAllocFree pins one AM-GAN iteration at zero allocations:
// gradients, targets and the generated-sample copy live on AMGAN-owned
// scratch.
func TestTrainStepAllocFree(t *testing.T) {
	samples, classes := synthClasses(8, 5)
	cfg := DefaultConfig(8, 2)
	cfg.GenHidden = []int{24, 16}
	a := New(cfg)
	i := 0
	allocs := testing.AllocsPerRun(50, func() {
		a.TrainStep(samples[i%len(samples)], classes[i%len(samples)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("TrainStep allocates %v times per call, want 0", allocs)
	}
}

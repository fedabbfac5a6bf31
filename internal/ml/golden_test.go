package ml

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// foldFloats writes the exact bits of every value into h.
func foldFloats(h hash.Hash64, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

// paramDigest folds every weight and bias of n, layer by layer.
func paramDigest(h hash.Hash64, n *Network) {
	for _, l := range n.Layers {
		for o := range l.W {
			foldFloats(h, l.W[o]...)
		}
		foldFloats(h, l.B...)
	}
}

// goldenTrainingDigest pins the exact bits a short training run produces:
// a reordered sum or a fused multiply-add anywhere in Forward, Backward,
// Step or InputGrad changes it.
const goldenTrainingDigest uint64 = 0x9fb36b4515364e76

func TestTrainingGolden(t *testing.T) {
	n := New(3, []int{9, 7, 5, 1}, LeakyReLU, Sigmoid)
	rng := rand.New(rand.NewSource(17))
	h := fnv.New64a()
	x := make([]float64, 9)
	target := make([]float64, 1)
	probe := []float64{1}
	for round := 0; round < 200; round++ {
		for s := 0; s < 4; s++ {
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			target[0] = float64((round + s) % 2)
			foldFloats(h, n.TrainSample(x, target))
		}
		n.Step(0.05, 0.9, 4)
		// The input gradient the GAN pulls through a frozen network.
		n.Forward(x)
		foldFloats(h, n.InputGrad(probe)...)
	}
	paramDigest(h, n)
	if got := h.Sum64(); got != goldenTrainingDigest {
		t.Fatalf("training digest %#x, want %#x", got, goldenTrainingDigest)
	}
}

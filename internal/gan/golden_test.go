package gan

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"evax/internal/ml"
)

func foldFloats(h hash.Hash64, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

func foldNet(h hash.Hash64, n *ml.Network) {
	for _, l := range n.Layers {
		for o := range l.W {
			foldFloats(h, l.W[o]...)
		}
		foldFloats(h, l.B...)
	}
}

// goldenTrainDigest pins the exact bits of a short AM-GAN run: both
// networks' parameters plus every recorded loss.
const goldenTrainDigest uint64 = 0x89c6c3430136909d

func TestTrainGolden(t *testing.T) {
	samples, classes := synthClasses(40, 5)
	cfg := DefaultConfig(8, 2)
	cfg.GenHidden = []int{24, 16}
	a := New(cfg)
	res := a.Train(samples, classes, 2)
	h := fnv.New64a()
	foldFloats(h, res.InitialStyleLoss)
	for _, e := range res.Epochs {
		foldFloats(h, e.DLoss, e.GLoss, e.StyleLoss)
	}
	foldNet(h, a.G)
	foldNet(h, a.D)
	if got := h.Sum64(); got != goldenTrainDigest {
		t.Fatalf("train digest %#x, want %#x", got, goldenTrainDigest)
	}
}

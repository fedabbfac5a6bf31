package defense

import (
	"math"
	"testing"
)

// FuzzDecodeBundle holds the bundle decoder, which parses the bytes a hot
// swap reads from disk, to its contract: reject or accept, never panic. An
// accepted bundle must survive an encode/decode round trip unchanged.
func FuzzDecodeBundle(f *testing.F) {
	good := syntheticBundle(f)
	f.Add(good)
	for _, n := range []int{0, 1, len(good) / 4, len(good) / 2, len(good) - 1} {
		f.Add(good[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		det, ds, err := DecodeBundle(data) // must not panic
		if err != nil {
			return
		}
		re, err := EncodeBundle(det, ds)
		if err != nil {
			t.Fatalf("accepted bundle failed to re-encode: %v", err)
		}
		det2, ds2, err := DecodeBundle(re)
		if err != nil {
			t.Fatalf("round-tripped bundle rejected: %v", err)
		}
		if det2.Plan.Dim() != det.Plan.Dim() || math.Float64bits(det2.Threshold) != math.Float64bits(det.Threshold) {
			t.Fatal("round trip changed the detector")
		}
		m, m2 := ds.Maxima(), ds2.Maxima()
		if len(m) != len(m2) {
			t.Fatalf("round trip changed %d maxima into %d", len(m), len(m2))
		}
		for i := range m {
			if math.Float64bits(m[i]) != math.Float64bits(m2[i]) {
				t.Fatalf("round trip changed maximum %d: %g → %g", i, m[i], m2[i])
			}
		}
	})
}

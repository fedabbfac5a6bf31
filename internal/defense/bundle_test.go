package defense

import (
	"encoding/json"
	"strings"
	"testing"

	"evax/internal/dataset"
	"evax/internal/detect"
	"evax/internal/hpc"
	"evax/internal/sim"
)

// syntheticBundle encodes a structurally valid bundle without training: an
// untrained perceptron over the EVAX feature set plus unit maxima spanning
// the derived space. Validation tests only need shape, not accuracy.
func syntheticBundle(t testing.TB) []byte {
	t.Helper()
	fs := detect.EVAXBase()
	fs.SetEngineered(detect.DefaultEngineered(fs))
	d := detect.NewPerceptron(3, fs)
	maxima := make([]float64, hpc.DerivedSpaceSize(sim.CounterCatalog().Len()))
	for i := range maxima {
		maxima[i] = 1
	}
	data, err := EncodeBundle(d, dataset.FromMaxima(maxima))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// corruptBundle returns a mutated copy of the encoded bundle data.
func corruptBundle(t *testing.T, data []byte, mutate func(b *bundle)) []byte {
	t.Helper()
	var b bundle
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	mutate(&b)
	out, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLoadBundleRejectsMalformedBundles: each way a bundle can be broken is
// rejected by DecodeBundle — the validation every engine.Load runs — with
// its own distinct error before any flagger is built. A maxima-length
// mismatch in particular would otherwise panic inside NormalizeInPlace on
// the first sampled window.
func TestLoadBundleRejectsMalformedBundles(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(t *testing.T, b *bundle)
		want   string
	}{
		{
			name:   "maxima too short",
			mutate: func(t *testing.T, b *bundle) { b.Maxima = b.Maxima[:len(b.Maxima)-1] },
			want:   "maxima for a",
		},
		{
			name:   "maxima too long",
			mutate: func(t *testing.T, b *bundle) { b.Maxima = append(b.Maxima, 1) },
			want:   "maxima for a",
		},
		{
			name:   "negative maximum",
			mutate: func(t *testing.T, b *bundle) { b.Maxima[2] = -4 },
			want:   "is negative",
		},
		{
			name: "malformed detector patch",
			mutate: func(t *testing.T, b *bundle) {
				b.Detector = json.RawMessage(`{"layers":[]}`)
			},
			want: "holds no layers",
		},
		{
			name: "detector patch with hostile index",
			mutate: func(t *testing.T, b *bundle) {
				var sd map[string]any
				if err := json.Unmarshal(b.Detector, &sd); err != nil {
					t.Fatal(err)
				}
				sd["indices"].([]any)[0] = float64(1 << 30)
				out, err := json.Marshal(sd)
				if err != nil {
					t.Fatal(err)
				}
				b.Detector = out
			},
			want: "outside derived space",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := corruptBundle(t, syntheticBundle(t), func(b *bundle) { tc.mutate(t, b) })
			_, _, err := DecodeBundle(data)
			if err == nil {
				t.Fatal("malformed bundle accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want message containing %q", err, tc.want)
			}
		})
	}
}

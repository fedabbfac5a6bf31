// Package gram implements the paper's interpretability and sample-quality
// metric: the Gram matrix of feature co-activation over a time window, and
// the attack style loss
//
//	L_GM(B, G) = 1/(4αN²) · Σᵢⱼ (GM(B)ᵢⱼ − GM(G)ᵢⱼ)²
//
// Two samples of the same attack *type* share leakage-phase correlation
// structure even when their raw feature values differ, so same-type pairs
// score near zero and cross-type pairs score high (paper Figures 6 and 7).
package gram

import (
	"evax/internal/fmath"
	"evax/internal/vec"
)

// Matrix computes the Gram matrix of a feature time series: series[t][f] is
// feature f at time step t; the result G[i][j] = Σ_t series[t][i]·series[t][j],
// normalized by the number of time steps.
func Matrix(series [][]float64) [][]float64 {
	if len(series) == 0 {
		return nil
	}
	n := len(series[0])
	g := make([][]float64, n)
	backing := make([]float64, n*n)
	for i := range g {
		g[i] = backing[i*n : (i+1)*n]
	}
	MatrixInto(g, series)
	return g
}

// MatrixInto is Matrix writing into dst, an n×n matrix for n features,
// which it zeroes first (and leaves zero for an empty series). Terms whose
// left factor is within fmath.Eps of zero are skipped.
func MatrixInto(dst, series [][]float64) {
	n := len(dst)
	for _, gi := range dst {
		clear(gi[:n])
	}
	if len(series) == 0 {
		return
	}
	for _, row := range series {
		row = row[:n]
		for i, vi := range row {
			if fmath.Zero(vi) {
				continue
			}
			vec.Axpy(dst[i][:n], row, vi)
		}
	}
	inv := 1 / float64(len(series))
	for _, gi := range dst {
		gi = gi[:n]
		for j := range gi {
			gi[j] *= inv
		}
	}
}

// VectorMatrix computes the Gram matrix of a single feature vector (outer
// product with itself) — the one-sample degenerate case used when a window
// has a single sample.
func VectorMatrix(v []float64) [][]float64 { return Matrix([][]float64{v}) }

// StyleLoss computes L_GM between two Gram matrices of equal dimension.
// alpha is the paper's constant (we use 1).
func StyleLoss(a, b [][]float64, alpha float64) float64 {
	if len(a) == 0 || len(a) != len(b) {
		return 0
	}
	n := float64(len(a))
	var sum float64
	for i := range a {
		ai, bi := a[i], b[i]
		for j := range ai {
			d := ai[j] - bi[j]
			sum += d * d
		}
	}
	return sum / (4 * alpha * n * n)
}

// SeriesStyleLoss is StyleLoss over two raw feature time series.
func SeriesStyleLoss(base, generated [][]float64, alpha float64) float64 {
	return StyleLoss(Matrix(base), Matrix(generated), alpha)
}

// SubMatrix extracts the Gram matrix restricted to the given feature
// indices (the paper visualizes 3-feature sub-matrices in Figure 6).
func SubMatrix(g [][]float64, idx []int) [][]float64 {
	out := make([][]float64, len(idx))
	for a, i := range idx {
		out[a] = make([]float64, len(idx))
		for b, j := range idx {
			out[a][b] = g[i][j]
		}
	}
	return out
}

// TopPairs returns the k most strongly co-activated distinct feature pairs
// (i < j) in the Gram matrix — the interpretability view that surfaces
// pairs like (Conflicts in IQ, SquashedLoads) firing together in Meltdown.
func TopPairs(g [][]float64, k int) [][2]int {
	type pair struct {
		i, j int
		v    float64
	}
	var pairs []pair
	for i := range g {
		for j := i + 1; j < len(g); j++ {
			if !fmath.Zero(g[i][j]) {
				pairs = append(pairs, pair{i, j, g[i][j]})
			}
		}
	}
	// Selection sort for the top k (k is small).
	if k > len(pairs) {
		k = len(pairs)
	}
	out := make([][2]int, 0, k)
	for n := 0; n < k; n++ {
		best := n
		for m := n + 1; m < len(pairs); m++ {
			if pairs[m].v > pairs[best].v {
				best = m
			}
		}
		pairs[n], pairs[best] = pairs[best], pairs[n]
		out = append(out, [2]int{pairs[n].i, pairs[n].j})
	}
	return out
}

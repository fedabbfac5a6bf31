package gram

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"evax/internal/fmath"
)

func TestMatrixBasic(t *testing.T) {
	series := [][]float64{
		{1, 2},
		{3, 4},
	}
	g := Matrix(series)
	// G[0][0] = (1+9)/2 = 5, G[0][1] = (2+12)/2 = 7, G[1][1] = (4+16)/2 = 10
	want := [][]float64{{5, 7}, {7, 10}}
	for i := range want {
		for j := range want[i] {
			if math.Abs(g[i][j]-want[i][j]) > 1e-12 {
				t.Fatalf("G[%d][%d] = %v, want %v", i, j, g[i][j], want[i][j])
			}
		}
	}
}

func TestMatrixSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	series := make([][]float64, 16)
	for i := range series {
		row := make([]float64, 6)
		for j := range row {
			row[j] = rng.Float64()
		}
		series[i] = row
	}
	g := Matrix(series)
	for i := range g {
		for j := range g {
			if g[i][j] != g[j][i] {
				t.Fatalf("asymmetric at %d,%d", i, j)
			}
		}
		if g[i][i] < 0 {
			t.Fatalf("negative diagonal at %d", i)
		}
	}
}

func TestMatrixEmpty(t *testing.T) {
	if Matrix(nil) != nil {
		t.Fatal("empty series should give nil matrix")
	}
}

// scalarMatrix is Matrix written as one scalar loop, the reference for
// the row-kernel version.
func scalarMatrix(series [][]float64) [][]float64 {
	n := len(series[0])
	g := make([][]float64, n)
	for i := range g {
		g[i] = make([]float64, n)
	}
	for _, row := range series {
		for i, vi := range row[:n] {
			if fmath.Zero(vi) {
				continue
			}
			for j, vj := range row[:n] {
				g[i][j] += vi * vj
			}
		}
	}
	inv := 1 / float64(len(series))
	for i := range g {
		for j := range g[i] {
			g[i][j] *= inv
		}
	}
	return g
}

func sameMatrixBits(t *testing.T, got, want [][]float64) {
	t.Helper()
	for i := range want {
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("G[%d][%d] = %v, want %v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestMatrixNearZeroTerms pins the fmath.Eps skip at the AM-GAN's width:
// features within Eps of zero (exact ±0, ±Eps, ±1e-10) contribute no row
// terms, while values just above Eps do, bit for bit as the scalar loop.
func TestMatrixNearZeroTerms(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tiny := []float64{0, math.Copysign(0, -1), fmath.Eps, -fmath.Eps, 1e-10, -1e-10, 2e-9, -2e-9}
	series := make([][]float64, 24)
	for s := range series {
		row := make([]float64, 133)
		for j := range row {
			if j%2 == 0 {
				row[j] = tiny[(s+j)%len(tiny)]
			} else {
				row[j] = rng.NormFloat64()
			}
		}
		series[s] = row
	}
	// Feature 0 never leaves [-Eps, Eps], so its row gets no terms.
	for _, row := range series {
		row[0] = tiny[rng.Intn(6)]
	}
	g := Matrix(series)
	sameMatrixBits(t, g, scalarMatrix(series))
	for j, v := range g[0] {
		if math.Float64bits(v) != 0 {
			t.Fatalf("G[0][%d] = %v, want +0 for a feature within Eps of zero", j, v)
		}
	}
}

// TestMatrixIntoOverwrites checks MatrixInto ignores what dst held and
// leaves it zero for an empty series.
func TestMatrixIntoOverwrites(t *testing.T) {
	series := [][]float64{{1, 0, 2}, {0, 3, -1}, {4, 1e-12, 5}}
	dst := [][]float64{{9, 9, 9}, {9, 9, 9}, {9, 9, 9}}
	MatrixInto(dst, series)
	sameMatrixBits(t, dst, Matrix(series))
	MatrixInto(dst, nil)
	sameMatrixBits(t, dst, [][]float64{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}})
}

func TestStyleLossZeroForIdentical(t *testing.T) {
	series := [][]float64{{1, 0, 2}, {0, 1, 1}}
	if l := SeriesStyleLoss(series, series, 1); l != 0 {
		t.Fatalf("self style loss = %v", l)
	}
}

// TestStyleLossSeparatesTypes is the core property behind Figure 6: two
// windows with the same correlation structure but different magnitudes are
// closer in style than windows with different structure.
func TestStyleLossSeparatesTypes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	mk := func(corr bool, scale float64) [][]float64 {
		series := make([][]float64, 32)
		for i := range series {
			a := rng.Float64() * scale
			b := rng.Float64() * scale
			if corr {
				// Features 0 and 1 fire together; feature 2 independent.
				series[i] = []float64{a, a * 0.9, b}
			} else {
				// Features 1 and 2 fire together instead.
				series[i] = []float64{a, b, b * 0.9}
			}
		}
		return series
	}
	base := mk(true, 1)
	sameType := mk(true, 1) // different random values, same structure
	diffType := mk(false, 1)
	same := SeriesStyleLoss(base, sameType, 1)
	diff := SeriesStyleLoss(base, diffType, 1)
	if same >= diff {
		t.Fatalf("same-type style loss (%v) not below cross-type (%v)", same, diff)
	}
}

func TestStyleLossScaleByAlphaAndN(t *testing.T) {
	a := [][]float64{{1, 0}, {0, 1}}
	b := [][]float64{{0, 0}, {0, 0}}
	l1 := StyleLoss(a, b, 1)
	l2 := StyleLoss(a, b, 2)
	if math.Abs(l1-2*l2) > 1e-12 {
		t.Fatalf("alpha scaling wrong: %v vs %v", l1, l2)
	}
	// sum of squares = 2, n = 2 -> 2/(4*1*4) = 0.125
	if math.Abs(l1-0.125) > 1e-12 {
		t.Fatalf("l1 = %v, want 0.125", l1)
	}
}

func TestStyleLossMismatchedDims(t *testing.T) {
	a := [][]float64{{1}}
	b := [][]float64{{1, 0}, {0, 1}}
	if l := StyleLoss(a, b, 1); l != 0 {
		t.Fatalf("mismatched dims should return 0, got %v", l)
	}
}

func TestVectorMatrix(t *testing.T) {
	g := VectorMatrix([]float64{2, 3})
	if g[0][0] != 4 || g[0][1] != 6 || g[1][1] != 9 {
		t.Fatalf("outer product wrong: %v", g)
	}
}

func TestSubMatrix(t *testing.T) {
	g := Matrix([][]float64{{1, 2, 3}, {4, 5, 6}})
	sub := SubMatrix(g, []int{0, 2})
	if sub[0][0] != g[0][0] || sub[0][1] != g[0][2] || sub[1][1] != g[2][2] {
		t.Fatalf("submatrix wrong: %v", sub)
	}
}

func TestTopPairs(t *testing.T) {
	// Features 0 and 1 strongly co-fire; 2 is independent noise.
	series := make([][]float64, 64)
	rng := rand.New(rand.NewSource(3))
	for i := range series {
		a := rng.Float64()
		series[i] = []float64{a, a, rng.Float64() * 0.1}
	}
	g := Matrix(series)
	top := TopPairs(g, 1)
	if len(top) != 1 || top[0] != [2]int{0, 1} {
		t.Fatalf("top pair = %v, want [0 1]", top)
	}
	if got := TopPairs(g, 100); len(got) != 3 {
		t.Fatalf("k clamp failed: %d pairs", len(got))
	}
}

func TestGramPositiveSemidefiniteProperty(t *testing.T) {
	// Property: a Gram matrix is positive semidefinite — xᵀGx >= 0 for
	// every x (testing/quick over random series and probe vectors).
	f := func(seed int64, probe [4]float64) bool {
		rng := rand.New(rand.NewSource(seed))
		series := make([][]float64, 8)
		for i := range series {
			row := make([]float64, 4)
			for j := range row {
				row[j] = rng.Float64() * 2
			}
			series[i] = row
		}
		g := Matrix(series)
		var quad float64
		for i := 0; i < 4; i++ {
			pi := math.Mod(probe[i], 10)
			if math.IsNaN(pi) || math.IsInf(pi, 0) {
				pi = 1
			}
			for j := 0; j < 4; j++ {
				pj := math.Mod(probe[j], 10)
				if math.IsNaN(pj) || math.IsInf(pj, 0) {
					pj = 1
				}
				quad += pi * g[i][j] * pj
			}
		}
		return quad >= -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestStyleLossNonNegativeProperty(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		mk := func(seed int64) [][]float64 {
			rng := rand.New(rand.NewSource(seed))
			s := make([][]float64, 6)
			for i := range s {
				row := make([]float64, 3)
				for j := range row {
					row[j] = rng.Float64()
				}
				s[i] = row
			}
			return s
		}
		return SeriesStyleLoss(mk(seedA), mk(seedB), 1) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

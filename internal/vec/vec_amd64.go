package vec

// useAVX2 selects the assembly kernels. It is fixed at init from CPUID.
var useAVX2 = hasAVX2()

// hasAVX2 reports whether the CPU implements AVX2 and the OS saves the
// XMM and YMM register state across context switches.
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	const xmmYMM = 1<<1 | 1<<2
	if xcr0, _ := xgetbv(); xcr0&xmmYMM != xmmYMM {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func axpy(dst, src []float64, a float64) {
	if useAVX2 {
		axpyAVX2(dst, src, a)
		return
	}
	axpyGo(dst, src, a)
}

func sgd(w, v, x []float64, d, lr, m float64) {
	if useAVX2 {
		sgdAVX2(w, v, x, d, lr, m)
		return
	}
	sgdGo(w, v, x, d, lr, m)
}

func sgdInputGrad(w, v, x, gradIn []float64, d, lr, m float64) {
	if useAVX2 {
		sgdInputGradAVX2(w, v, x, gradIn, d, lr, m)
		return
	}
	sgdInputGradGo(w, v, x, gradIn, d, lr, m)
}

func step(w, v, g []float64, lr, m, inv float64) {
	if useAVX2 {
		stepAVX2(w, v, g, lr, m, inv)
		return
	}
	stepGo(w, v, g, lr, m, inv)
}

func mulAddRows(z []float64, W [][]float64, x []float64) {
	if useAVX2 {
		mulAddRowsVec(z, W, x)
		return
	}
	mulAddRowsGo(z, W, x)
}

// mulAddRowsVec is MulAddRows on the AVX2 path. The assembly takes the
// rows in groups of eight, then one of four, over the even-length prefix
// of x, two inputs per step; Go then adds an odd last input to those rows
// and runs the leftover rows (len(z) mod 4, all of a layer narrower than
// four) on their own. Every output's chain stays in input order.
func mulAddRowsVec(z []float64, W [][]float64, x []float64) {
	g, n := len(z)&^3, len(x)&^1
	if g > 0 && n > 0 {
		mulAddRowsAVX2(z[:g], W[:g], x[:n])
	}
	if n < len(x) {
		xn := x[n]
		for o, w := range W[:g] {
			z[o] += float64(w[n] * xn)
		}
	}
	mulAddRowsGo(z[g:], W[g:], x)
}

// The AVX2 kernels read len(dst) or len(w) elements of every slice; the
// exported wrappers guarantee the other slices are at least that long.

//go:noescape
func axpyAVX2(dst, src []float64, a float64)

//go:noescape
func sgdAVX2(w, v, x []float64, d, lr, m float64)

//go:noescape
func sgdInputGradAVX2(w, v, x, gradIn []float64, d, lr, m float64)

//go:noescape
func stepAVX2(w, v, g []float64, lr, m, inv float64)

// mulAddRowsAVX2 needs len(z) a positive multiple of 4, len(x) positive
// and even, and at least len(x) weights in each of the first
// len(z) rows of W.
//
//go:noescape
func mulAddRowsAVX2(z []float64, W [][]float64, x []float64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

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

// The AVX2 kernels read len(dst) or len(w) elements of every slice; the
// exported wrappers guarantee the other slices are at least that long.

//go:noescape
func axpyAVX2(dst, src []float64, a float64)

//go:noescape
func sgdAVX2(w, v, x []float64, d, lr, m float64)

//go:noescape
func sgdInputGradAVX2(w, v, x, gradIn []float64, d, lr, m float64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

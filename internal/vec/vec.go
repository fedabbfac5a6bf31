// Package vec holds the elementwise row kernels the neural-network and Gram
// code spend their time in: a scaled add, the one-sample SGD-with-momentum
// update, and that update fused with the input-gradient row.
//
// On amd64 CPUs with AVX2 (and an OS that saves the YMM registers) each
// kernel runs in assembly, four float64 lanes at a time; everywhere else,
// and as the reference the assembly is tested against, a plain Go row loop
// runs. The choice is made once, at package init, from CPUID.
//
// Both paths produce bit-identical results: every lane performs exactly the
// scalar operation sequence documented on its kernel, with separate
// multiplies and adds (no fused multiply-add), and every cell is updated on
// its own, so no reduction order changes. The Go loops round each product explicitly, so
// a compiler that fuses x*y+z elsewhere cannot fuse them (DESIGN.md §7).
//
// Every input must be at least as long as the destination row (the
// kernels panic otherwise), and slices passed to one call must not overlap.
package vec

// Axpy adds a*src[i] to dst[i] for every i < len(dst).
func Axpy(dst, src []float64, a float64) {
	axpy(dst, src[:len(dst)], a)
}

// SGD applies one SGD-with-momentum step to the weight row w with velocity
// row v, for the one-sample gradient d*x[i] of each weight:
//
//	g = 0 + d*x[i]; v[i] = m*v[i] - lr*g; w[i] += v[i]
//
// The 0 + turns a -0 product into +0, as a gradient accumulated into a
// cleared cell would be.
func SGD(w, v, x []float64, d, lr, m float64) {
	sgd(w, v[:len(w)], x[:len(w)], d, lr, m)
}

// SGDInputGrad adds d*w[i] to gradIn[i], reading each weight before its
// update, then applies the same step as SGD.
func SGDInputGrad(w, v, x, gradIn []float64, d, lr, m float64) {
	sgdInputGrad(w, v[:len(w)], x[:len(w)], gradIn[:len(w)], d, lr, m)
}

// axpyGo is Axpy's portable row loop; len(src) == len(dst).
func axpyGo(dst, src []float64, a float64) {
	for i, s := range src {
		dst[i] += float64(a * s)
	}
}

// sgdGo is SGD's portable row loop; every slice has len(w).
func sgdGo(w, v, x []float64, d, lr, m float64) {
	for i, xi := range x {
		g := 0 + float64(d*xi)
		vi := float64(m*v[i]) - float64(lr*g)
		v[i] = vi
		w[i] += vi
	}
}

// sgdInputGradGo is SGDInputGrad's portable row loop; every slice has
// len(w).
func sgdInputGradGo(w, v, x, gradIn []float64, d, lr, m float64) {
	for i, xi := range x {
		p := w[i]
		gradIn[i] += float64(d * p)
		g := 0 + float64(d*xi)
		vi := float64(m*v[i]) - float64(lr*g)
		v[i] = vi
		w[i] = p + vi
	}
}

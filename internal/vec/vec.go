// Package vec holds the row kernels the neural-network and Gram code spend
// their time in: a scaled add, the one-sample and the accumulated
// SGD-with-momentum updates, the one-sample update fused with the
// input-gradient row, and a dense layer's matrix-vector product.
//
// On amd64 CPUs with AVX2 (and an OS that saves the YMM registers) each
// kernel runs in assembly, four float64 lanes at a time; everywhere else,
// and as the reference the assembly is tested against, a plain Go row loop
// runs. The choice is made once, at package init, from CPUID.
//
// Both paths produce bit-identical results: every lane performs exactly the
// scalar operation sequence documented on its kernel, with separate
// multiplies and adds (no fused multiply-add), and every output cell is
// computed on its own, so no reduction order changes. The Go loops round
// each product explicitly, so a compiler that fuses x*y+z elsewhere cannot
// fuse them (DESIGN.md §7).
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

// Step applies one SGD-with-momentum step to the weight row w with velocity
// row v, for the accumulated gradient row g scaled by inv, and clears g:
//
//	v[i] = m*v[i] - (lr*g[i])*inv; w[i] += v[i]; g[i] = 0
func Step(w, v, g []float64, lr, m, inv float64) {
	step(w, v[:len(w)], g[:len(w)], lr, m, inv)
}

// MulAddRows adds the product of the matrix W and the vector x to z:
//
//	z[o] += W[o][i]*x[i] for every o < len(z), for i in order
//
// Each output keeps its own sequential chain, starting from z[o] and
// adding the inputs in order, exactly as the one-row dot product does;
// only the chains of different outputs run side by side. The rows of W
// may be separate allocations; W needs len(z) rows of at least len(x)
// weights each.
func MulAddRows(z []float64, W [][]float64, x []float64) {
	W = W[:len(z)]
	for _, w := range W {
		if len(w) < len(x) {
			panic("vec: MulAddRows weight row shorter than x")
		}
	}
	mulAddRows(z, W, x)
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

// stepGo is Step's portable row loop; every slice has len(w).
func stepGo(w, v, g []float64, lr, m, inv float64) {
	for i, gi := range g {
		vi := float64(m*v[i]) - float64(float64(lr*gi)*inv)
		v[i] = vi
		w[i] += vi
		g[i] = 0
	}
}

// mulAddRowsGo is MulAddRows' portable loop, four output rows at a time
// so four independent add chains overlap, then one at a time; len(W) ==
// len(z) and every row has at least len(x) weights.
func mulAddRowsGo(z []float64, W [][]float64, x []float64) {
	o := 0
	for ; o+4 <= len(z); o += 4 {
		w0, w1, w2, w3 := W[o][:len(x)], W[o+1][:len(x)], W[o+2][:len(x)], W[o+3][:len(x)]
		z0, z1, z2, z3 := z[o], z[o+1], z[o+2], z[o+3]
		for i, xi := range x {
			z0 += float64(w0[i] * xi)
			z1 += float64(w1[i] * xi)
			z2 += float64(w2[i] * xi)
			z3 += float64(w3[i] * xi)
		}
		z[o], z[o+1], z[o+2], z[o+3] = z0, z1, z2, z3
	}
	for ; o < len(z); o++ {
		w := W[o][:len(x)]
		s := z[o]
		for i, xi := range x {
			s += float64(w[i] * xi)
		}
		z[o] = s
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

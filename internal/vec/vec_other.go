//go:build !amd64

package vec

// Off amd64 only the Go row loops exist.

func axpy(dst, src []float64, a float64) { axpyGo(dst, src, a) }

func sgd(w, v, x []float64, d, lr, m float64) { sgdGo(w, v, x, d, lr, m) }

func sgdInputGrad(w, v, x, gradIn []float64, d, lr, m float64) {
	sgdInputGradGo(w, v, x, gradIn, d, lr, m)
}

func step(w, v, g []float64, lr, m, inv float64) { stepGo(w, v, g, lr, m, inv) }

func mulAddRows(z []float64, W [][]float64, x []float64) { mulAddRowsGo(z, W, x) }

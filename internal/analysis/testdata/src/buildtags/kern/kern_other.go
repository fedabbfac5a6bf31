//go:build !amd64

package kern

// Scale is the portable build's version of the same function.
func Scale(x float64) float64 { return x + x }

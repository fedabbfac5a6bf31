package kern

// Scale is the amd64 build's version.
func Scale(x float64) float64 { return 2 * x }

package kern

// Twice calls whichever Scale the build selected.
func Twice(x float64) float64 { return Scale(Scale(x)) }

package evasion

import "evax/internal/detect"

// AML is a white-box feature-space adversarial attack on a detector
// (FGSM/DeepFool-style iterative perturbation). The attacker minimizes the
// detector's malicious score by gradient descent over the feature vector,
// but microarchitectural attacks are physical processes: the features that
// realize the leakage cannot drop below their floors without disabling the
// attack (the transient window bounded by the ROB). The paper's defense is
// to push classification margins past those floors.
type AML struct {
	// Floors are the per-feature minima (base-feature space) the sample
	// must keep for the attack to still leak. Zero means unconstrained.
	Floors []float64
	// StepSize of each gradient step.
	StepSize float64
	// MaxIter bounds the search.
	MaxIter int
}

// NewAML builds an attack with the given leakage floors.
func NewAML(floors []float64) *AML {
	return &AML{Floors: floors, StepSize: 0.05, MaxIter: 60}
}

// Result describes one evasion attempt.
type Result struct {
	// Adv is the final adversarial feature vector (base space).
	Adv []float64
	// Evaded reports the detector classified Adv as benign.
	Evaded bool
	// AttackAlive reports the floors were respected: the evasive sample
	// still leaks. Evaded && !AttackAlive is a pyrrhic evasion — the
	// transformation disabled the attack.
	AttackAlive bool
	// Iterations consumed.
	Iterations int
}

// Perturb runs the iterative attack against det starting from a malicious
// base-space sample. At each step the detector's input gradient is followed
// downhill; features are clamped to [0,1]. If respectFloors is true the
// perturbation never crosses a floor (the attacker preserves the attack);
// otherwise floors may be crossed and the attack silently dies.
func (a *AML) Perturb(det *detect.Detector, base []float64, respectFloors bool) Result {
	return a.perturb(det, base, respectFloors, true)
}

// Descend is Perturb without the early exit: it walks all the way to the
// attack's floor-constrained score minimum. Defenders use it to find the
// worst-case reachable evasion point when hardening margins.
func (a *AML) Descend(det *detect.Detector, base []float64) Result {
	return a.perturb(det, base, true, false)
}

func (a *AML) perturb(det *detect.Detector, base []float64, respectFloors, stopAtBoundary bool) Result {
	adv := append([]float64(nil), base...)
	res := Result{}
	gradOut := []float64{1}
	g := make([]float64, len(adv))
	for it := 0; it < a.MaxIter; it++ {
		res.Iterations = it + 1
		score := det.ScoreBase(adv)
		if stopAtBoundary && score < det.Threshold {
			break // already classified benign
		}
		// Gradient of the score w.r.t. the detector input, pulled back
		// through the engineered-feature extension.
		x := det.Plan.Extend(adv)
		det.Net.Forward(x)
		gIn := det.Net.InputGrad(gradOut)
		// Engineered features j = A*B contribute dJ/dA = grad_j * B.
		copy(g, gIn[:len(adv)])
		for k, f := range det.Plan.Engineered() {
			ge := gIn[len(adv)+k]
			g[f.A] += ge * adv[f.B]
			g[f.B] += ge * adv[f.A]
		}
		for i := range adv {
			adv[i] -= a.StepSize * sign(g[i])
			if adv[i] < 0 {
				adv[i] = 0
			}
			if adv[i] > 1 {
				adv[i] = 1
			}
			if respectFloors && i < len(a.Floors) && adv[i] < a.Floors[i] {
				adv[i] = a.Floors[i]
			}
		}
	}
	res.Adv = adv
	res.Evaded = !det.FlagBase(adv)
	res.AttackAlive = true
	for i, f := range a.Floors {
		if f > 0 && adv[i] < f-1e-9 {
			res.AttackAlive = false
			break
		}
	}
	return res
}

func sign(x float64) float64 {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	}
	return 0
}

// FloorsFromSamples derives leakage floors for an attack class: for each
// feature, take frac times the median value over the class's leak-phase
// samples, but only for features whose class median clearly exceeds the
// benign median (the leak-critical features). Everything else is
// unconstrained.
func FloorsFromSamples(attack, benign [][]float64, frac float64) []float64 {
	if len(attack) == 0 {
		return nil
	}
	dim := len(attack[0])
	floors := make([]float64, dim)
	med := func(vs [][]float64, j int) float64 {
		col := make([]float64, len(vs))
		for i := range vs {
			col[i] = vs[i][j]
		}
		// insertion sort: dims small
		for i := 1; i < len(col); i++ {
			for k := i; k > 0 && col[k] < col[k-1]; k-- {
				col[k], col[k-1] = col[k-1], col[k]
			}
		}
		return col[len(col)/2]
	}
	for j := 0; j < dim; j++ {
		am := med(attack, j)
		bm := 0.0
		if len(benign) > 0 {
			bm = med(benign, j)
		}
		if am > 2*bm && am > 0.005 {
			floors[j] = am * frac
		}
	}
	return floors
}

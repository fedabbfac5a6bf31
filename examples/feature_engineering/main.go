// Feature engineering: train the conditional AM-GAN on attack samples and
// mine new security-centric HPCs from the generator's hidden weights —
// the paper's automated alternative to brute-forcing 2.6e8 counter
// combinations (§VI-A, Table I). The mined AND-combinations are then shown
// separating attacks from benign traffic.
//
//	go run ./examples/feature_engineering
package main

import (
	"fmt"

	"evax/internal/detect"
	"evax/internal/experiments"
	"evax/internal/isa"
)

func main() {
	fmt.Println("training the AM-GAN over the EVAX counter space...")
	lab := experiments.NewLab(experiments.QuickLabOptions())

	fmt.Println()
	fmt.Print(experiments.TableI(lab))

	// Show each engineered feature's activation on attacks vs benign.
	fs := detect.EVAXBase()
	fs.SetEngineered(lab.Mined)
	fmt.Println("\nmean engineered-feature activation (benign vs attacks):")
	v := make([]float64, fs.Dim())
	eng := v[fs.BaseDim():]
	benignSum := make([]float64, len(eng))
	attackSum := make([]float64, len(eng))
	benignN, attackN := 0, 0
	for i := range lab.DS.Samples {
		s := &lab.DS.Samples[i]
		fs.GatherVector(v, s.Derived)
		if s.Class == isa.ClassBenign {
			for j, x := range eng {
				benignSum[j] += x
			}
			benignN++
		} else {
			for j, x := range eng {
				attackSum[j] += x
			}
			attackN++
		}
	}
	for j, f := range lab.Mined {
		fmt.Printf("  %-64s benign %.5f  attack %.5f\n",
			f.Name, benignSum[j]/float64(benignN), attackSum[j]/float64(attackN))
	}

	fmt.Println("\nGram-matrix quality check for the trained generator:")
	fig6 := experiments.Figure6(lab)
	fmt.Printf("  L_GM(same type)  = %.5f\n", fig6.LossBC)
	fmt.Printf("  L_GM(cross type) = %.5f\n", fig6.LossAC)
}

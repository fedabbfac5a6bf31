package dataset

import (
	"testing"

	"evax/internal/isa"
)

func TestSampleBlockRows(t *testing.T) {
	b := NewSampleBlock(3, 6)
	for i := 0; i < 4; i++ {
		if got := b.Extend(); got != i {
			t.Fatalf("Extend returned %d, want %d", got, i)
		}
		raw, der := b.RawRow(i), b.DerivedRow(i)
		for j := range raw {
			raw[j] = float64(10*i + j)
		}
		for j := range der {
			der[j] = float64(100*i + j)
		}
	}
	if b.Len() != 4 || b.RawDim() != 3 || b.DerivedDim() != 6 {
		t.Fatalf("geometry = (%d,%d,%d)", b.Len(), b.RawDim(), b.DerivedDim())
	}
	// Rows survive growth in the backing array.
	for i := 0; i < 4; i++ {
		if b.RawRow(i)[1] != float64(10*i+1) || b.DerivedRow(i)[5] != float64(100*i+5) {
			t.Fatalf("row %d content lost after growth", i)
		}
	}
	if data := b.DerivedData(); len(data) != 24 || data[6] != 100 {
		t.Fatalf("DerivedData wrong: len=%d", len(data))
	}
}

func TestSampleBlockGrowReserves(t *testing.T) {
	b := NewSampleBlock(3, 5)
	b.Extend()
	b.RawRow(0)[2] = 7
	b.Grow(4)
	raw0, der0 := &b.RawRow(0)[0], &b.DerivedRow(0)[0]
	for i := 0; i < 4; i++ {
		b.Extend()
	}
	if &b.RawRow(0)[0] != raw0 || &b.DerivedRow(0)[0] != der0 {
		t.Fatal("Extend moved a backing array after Grow reserved the rows")
	}
	if b.Len() != 5 || b.RawRow(0)[2] != 7 || b.RawRow(4)[2] != 0 {
		t.Fatalf("rows after Grow: len %d, row 0 %v, row 4 %v", b.Len(), b.RawRow(0), b.RawRow(4))
	}
	// Reset keeps the reserve: the refilled block stays in place and its
	// rows come back zeroed.
	b.Reset()
	for i := 0; i < 5; i++ {
		b.Extend()
	}
	if &b.RawRow(0)[0] != raw0 || b.Len() != 5 || b.RawRow(0)[2] != 0 {
		t.Fatalf("after Reset: moved %v, len %d, row 0 %v", &b.RawRow(0)[0] != raw0, b.Len(), b.RawRow(0))
	}
}

func TestSampleBlockRowViewsCapClamped(t *testing.T) {
	// Appending through a row view must copy, never clobber the next row.
	b := NewSampleBlock(2, 2)
	b.Extend()
	b.Extend()
	b.DerivedRow(1)[0] = 42
	grown := append(b.DerivedRow(0), -1)
	if b.DerivedRow(1)[0] != 42 {
		t.Fatal("append through row view clobbered the next row")
	}
	if grown[2] != -1 {
		t.Fatal("append result wrong")
	}
}

func TestRepackRebindsViews(t *testing.T) {
	mk := func(base float64) Sample {
		return Sample{
			Raw:     []float64{base, base + 1},
			Derived: []float64{base + 2, base + 3, base + 4},
			Class:   isa.ClassBenign,
			Program: "p",
		}
	}
	samples := []Sample{mk(0), mk(10), mk(20)}
	b := Repack(samples)
	if b.Len() != 3 || b.RawDim() != 2 || b.DerivedDim() != 3 {
		t.Fatalf("block geometry = (%d,%d,%d)", b.Len(), b.RawDim(), b.DerivedDim())
	}
	for i := range samples {
		want := float64(10 * i)
		if samples[i].Raw[0] != want || samples[i].Derived[2] != want+4 {
			t.Fatalf("sample %d values changed by Repack", i)
		}
		// The views must alias the block, so writes through one are
		// visible through the other.
		samples[i].Derived[0] = -1
		if b.DerivedRow(i)[0] != -1 {
			t.Fatalf("sample %d Derived not rebound into block", i)
		}
	}
	if Repack(nil) != nil {
		t.Fatal("Repack(nil) should be nil")
	}
}

func TestRepackRejectsRaggedRows(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for ragged rows")
		}
	}()
	Repack([]Sample{
		{Raw: []float64{1}, Derived: []float64{1}},
		{Raw: []float64{1, 2}, Derived: []float64{1}},
	})
}

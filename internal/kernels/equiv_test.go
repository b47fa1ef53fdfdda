package kernels

import (
	"math/rand"
	"testing"
)

// The width-specialized fast paths and the portable vec-based reference
// forms must agree bit for bit on every kernel shape.

func fill64(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.Float64()
	}
	return s
}

func fill32(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = rng.Float32()
	}
	return s
}

func TestGEMMFastMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, vl := range []int{2, 4} {
		for mc := 1; mc <= 4; mc++ {
			for nc := 1; nc <= 4; nc++ {
				for _, k := range []int{1, 3, 8} {
					for _, ovw := range []bool{false, true} {
						strideC := mc + 1
						pa := fill64(rng, k*mc*vl)
						pb := fill64(rng, k*nc*vl)
						c := fill64(rng, nc*strideC*vl)
						cGen := append([]float64(nil), c...)
						GEMM(pa, pb, c, mc, nc, k, strideC, vl, 1.5, ovw)
						gemmGeneric(pa, pb, cGen, mc, nc, k, Strides{A: mc, BK: nc, BN: 1, C: strideC}, vl, 1.5, ovw)
						for i := range c {
							if c[i] != cGen[i] {
								t.Fatalf("vl=%d %dx%d k=%d ovw=%v: fast/generic diverge at %d", vl, mc, nc, k, ovw, i)
							}
						}
					}
				}
			}
		}
	}
}

func TestGEMMCplxFastMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, vl := range []int{2, 4} {
		for mc := 1; mc <= 3; mc++ {
			for nc := 1; nc <= 2; nc++ {
				for _, k := range []int{1, 5} {
					for _, ovw := range []bool{false, true} {
						bl := 2 * vl
						strideC := mc + 1
						pa := fill32(rng, k*mc*bl)
						pb := fill32(rng, k*nc*bl)
						c := fill32(rng, nc*strideC*bl)
						cGen := append([]float32(nil), c...)
						GEMMCplx(pa, pb, c, mc, nc, k, strideC, vl, 1.5, -0.5, ovw)
						gemmCplxGeneric(pa, pb, cGen, mc, nc, k, strideC, vl, 1.5, -0.5, ovw)
						for i := range c {
							if c[i] != cGen[i] {
								t.Fatalf("vl=%d %dx%d k=%d ovw=%v: complex fast/generic diverge at %d", vl, mc, nc, k, ovw, i)
							}
						}
					}
				}
			}
		}
	}
}

func TestTriFastMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, vl := range []int{2, 4} {
		for m := 1; m <= 5; m++ {
			for _, ncols := range []int{1, 3} {
				strideB := m + 2
				tri := m * (m + 1) / 2
				pa := fill64(rng, tri*vl)
				// Reciprocal-style diagonal values are already arbitrary
				// multipliers for the equivalence check.
				b := fill64(rng, ncols*strideB*vl)
				bGen := append([]float64(nil), b...)
				Tri(pa, b, m, ncols, strideB, vl)
				triGeneric(pa, bGen, m, ncols, strideB, vl)
				for i := range b {
					if b[i] != bGen[i] {
						t.Fatalf("vl=%d m=%d ncols=%d: tri fast/generic diverge at %d", vl, m, ncols, i)
					}
				}
			}
		}
	}
}

func TestRectFastMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, vl := range []int{2, 4} {
		for mc := 1; mc <= 4; mc++ {
			for nc := 1; nc <= 4; nc++ {
				const k = 6
				strideC, strideX := mc+1, k+1
				pa := fill64(rng, k*mc*vl)
				x := fill64(rng, nc*strideX*vl)
				c := fill64(rng, nc*strideC*vl)
				cGen := append([]float64(nil), c...)
				Rect(pa, x, c, mc, nc, k, strideC, strideX, vl)
				rectGeneric(pa, x, cGen, mc, nc, k, strideC, strideX, vl)
				for i := range c {
					if c[i] != cGen[i] {
						t.Fatalf("vl=%d %dx%d: rect fast/generic diverge at %d", vl, mc, nc, i)
					}
				}
			}
		}
	}
}

func TestOverwriteSave(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const mc, nc, k, vl = 4, 4, 3, 4
	pa := fill32(rng, k*mc*vl)
	pb := fill32(rng, k*nc*vl)
	c := fill32(rng, nc*mc*vl)
	acc := append([]float32(nil), c...)
	GEMM(pa, pb, c, mc, nc, k, mc, vl, 2.0, true) // overwrite
	GEMM(pa, pb, acc, mc, nc, k, mc, vl, 2.0, false)
	// acc = orig + 2AB; c = 2AB; they must differ by exactly orig.
	for i := range c {
		if acc[i] == c[i] {
			t.Fatalf("overwrite ignored prior C at %d", i)
		}
	}
	// A second overwrite run is idempotent.
	c2 := append([]float32(nil), c...)
	GEMM(pa, pb, c2, mc, nc, k, mc, vl, 2.0, true)
	for i := range c {
		if c[i] != c2[i] {
			t.Fatalf("overwrite not idempotent at %d", i)
		}
	}
}

package kernels

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"testing"

	"iatf/internal/ktmpl"
	"iatf/internal/vec"
)

// The dispatching kernels (the amd64 AVX kernels where they apply) must
// agree bit for bit with the Go kernels they fall back to. NaN payloads
// are not compared: any NaN matches any NaN.

// specials are the edge inputs mixed into the operands: signed zeros,
// infinities, NaN, the smallest and largest subnormals and a value whose
// products overflow.
func specials[E vec.Float]() []E {
	sub, maxSub, huge := math.Float64frombits(1), math.Float64frombits(0x000fffffffffffff), -1.7e308
	if vec.Lanes[E]() == 4 {
		sub, maxSub, huge = float64(math.Float32frombits(1)), float64(math.Float32frombits(0x007fffff)), -3e38
	}
	vals := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), sub, maxSub, huge}
	out := make([]E, len(vals))
	for i, v := range vals {
		out[i] = E(v)
	}
	return out
}

// randOperand fills n elements with mostly ordinary values and, when
// special is set, about one edge value in eight.
func randOperand[E vec.Float](rng *rand.Rand, n int, special bool) []E {
	sp := specials[E]()
	s := make([]E, n)
	for i := range s {
		if special && rng.Intn(8) == 0 {
			s[i] = sp[rng.Intn(len(sp))]
			continue
		}
		s[i] = E(rng.NormFloat64())
	}
	return s
}

func sameBits[E vec.Float](t *testing.T, what string, got, want []E) {
	t.Helper()
	for i := range got {
		g, w := float64(got[i]), float64(want[i])
		if math.IsNaN(g) && math.IsNaN(w) {
			continue
		}
		if g != w || math.Signbit(g) != math.Signbit(w) {
			t.Fatalf("%s: element %d = %v, Go kernel %v", what, i, got[i], want[i])
		}
	}
}

// stridesFor returns the operand layouts the executors use for a k-long
// 4×4 call: packed panels, in-place NN (A = M, B = (1, K)), in-place Bᵀ
// (B = (N, 1)), with padding so no stride equals the tile size.
func stridesFor(k int) []Strides {
	return []Strides{
		{A: 4, BK: 4, BN: 1, C: 4},
		{A: 6, BK: 1, BN: k + 1, C: 6},
		{A: 9, BK: 7, BN: 1, C: 5},
	}
}

func extent(st Strides, k, vl int) (na, nb, nc int) {
	return ((k-1)*st.A + 4) * vl, ((k-1)*st.BK + 3*st.BN + 1) * vl, (3*st.C + 4) * vl
}

func gemmProperty[E vec.Float](t *testing.T, vl int) {
	rng := rand.New(rand.NewSource(int64(vl)))
	for k := 1; k <= 33; k++ {
		for _, st := range stridesFor(k) {
			for _, special := range []bool{false, true} {
				for _, alpha := range []E{1, -0.5, 0, E(math.Copysign(0, -1)), 3.25} {
					for _, ovw := range []bool{false, true} {
						na, nb, nc := extent(st, k, vl)
						pa := randOperand[E](rng, na, special)
						pb := randOperand[E](rng, nb, special)
						c := randOperand[E](rng, nc, special)
						want := append([]E(nil), c...)
						GEMMStrided(pa, pb, c, 4, 4, k, st, vl, alpha, ovw)
						if vl == 4 {
							gemm44x4(pa, pb, want, k, st, alpha, ovw)
						} else {
							gemm44x2(pa, pb, want, k, st, alpha, ovw)
						}
						sameBits(t, "GEMM", c, want)
					}
				}
			}
		}
	}
}

func rectProperty[E vec.Float](t *testing.T, vl int, add bool) {
	rng := rand.New(rand.NewSource(int64(10 + vl)))
	for k := 1; k <= 33; k++ {
		for _, strideX := range []int{k, k + 3} {
			for _, strideC := range []int{4, 7} {
				for _, special := range []bool{false, true} {
					st := Strides{A: 4, BK: 1, BN: strideX, C: strideC}
					na, nb, nc := extent(st, k, vl)
					pa := randOperand[E](rng, na, special)
					x := randOperand[E](rng, nb, special)
					c := randOperand[E](rng, nc, special)
					want := append([]E(nil), c...)
					switch {
					case add && vl == 4:
						RectAdd(pa, x, c, 4, 4, k, strideC, strideX, vl)
						rectAdd4(pa, x, want, 4, 4, k, strideC, strideX)
					case add:
						RectAdd(pa, x, c, 4, 4, k, strideC, strideX, vl)
						rectAdd2(pa, x, want, 4, 4, k, strideC, strideX)
					case vl == 4:
						Rect(pa, x, c, 4, 4, k, strideC, strideX, vl)
						rect4(pa, x, want, 4, 4, k, strideC, strideX)
					default:
						Rect(pa, x, c, 4, 4, k, strideC, strideX, vl)
						rect2(pa, x, want, 4, 4, k, strideC, strideX)
					}
					sameBits(t, "Rect", c, want)
				}
			}
		}
	}
}

func triProperty[E vec.Float](t *testing.T, vl int, mul bool) {
	rng := rand.New(rand.NewSource(int64(20 + vl)))
	for m := 1; m <= 5; m++ {
		for ncols := 1; ncols <= 9; ncols++ {
			for _, strideB := range []int{m, m + 2} {
				for _, special := range []bool{false, true} {
					pa := randOperand[E](rng, m*(m+1)/2*vl, special)
					b := randOperand[E](rng, ((ncols-1)*strideB+m)*vl, special)
					want := append([]E(nil), b...)
					switch {
					case mul && vl == 4:
						TriMul(pa, b, m, ncols, strideB, vl)
						triMul4(pa, want, m, ncols, strideB)
					case mul:
						TriMul(pa, b, m, ncols, strideB, vl)
						triMul2(pa, want, m, ncols, strideB)
					case vl == 4:
						Tri(pa, b, m, ncols, strideB, vl)
						tri4(pa, want, m, ncols, strideB)
					default:
						Tri(pa, b, m, ncols, strideB, vl)
						tri2(pa, want, m, ncols, strideB)
					}
					sameBits(t, "Tri", b, want)
				}
			}
		}
	}
}

func TestAsmKernelsMatchGo(t *testing.T) {
	t.Logf("kernels ISA: %s", ISA())
	gemmProperty[float32](t, 4)
	gemmProperty[float64](t, 2)
	for _, add := range []bool{false, true} {
		rectProperty[float32](t, 4, add)
		rectProperty[float64](t, 2, add)
	}
	for _, mul := range []bool{false, true} {
		triProperty[float32](t, 4, mul)
		triProperty[float64](t, 2, mul)
	}
}

// A slice one element shorter than a kernel's extent must panic in the
// wrapper, never be read or written out of bounds.
func TestShortOperandPanics(t *testing.T) {
	const k, vl = 5, 2
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: short operand did not panic", name)
			}
		}()
		f()
	}
	for _, st := range stridesFor(k) {
		na, nb, nc := extent(st, k, vl)
		a, b, c := make([]float64, na), make([]float64, nb), make([]float64, nc)
		mustPanic("GEMM A", func() { GEMMStrided(a[:na-1], b, c, 4, 4, k, st, vl, 1, false) })
		mustPanic("GEMM B", func() { GEMMStrided(a, b[:nb-1], c, 4, 4, k, st, vl, 1, false) })
		mustPanic("GEMM C", func() { GEMMStrided(a, b, c[:nc-1], 4, 4, k, st, vl, 1, true) })
	}
	st := Strides{A: 4, BK: 1, BN: k, C: 4}
	na, nb, nc := extent(st, k, vl)
	a, x, c := make([]float32, na*2), make([]float32, nb*2), make([]float32, nc*2)
	mustPanic("Rect C", func() { Rect(a[:na*2], x[:nb*2], c[:nc*2-1], 4, 4, k, 4, k, 4) })
	mustPanic("RectAdd X", func() { RectAdd(a[:na*2], x[:nb*2-1], c[:nc*2], 4, 4, k, 4, k, 4) })
	tri := make([]float64, 15*vl)
	bb := make([]float64, (3*5+5)*vl)
	mustPanic("Tri B", func() { Tri(tri, bb[:len(bb)-1], 5, 4, 5, vl) })
	mustPanic("TriMul A", func() { TriMul(tri[:len(tri)-1], bb, 5, 4, 5, vl) })
}

// The committed assembly must be exactly what the generator emits.
func TestGeneratedAsmUpToDate(t *testing.T) {
	got, err := os.ReadFile("avx_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ktmpl.EmitAMD64()) {
		t.Fatal("avx_amd64.s is stale: run go generate ./internal/kernels")
	}
}

// BenchmarkKernels reports the GFLOP/s of the 4×4 GEMM main kernel
// (k = 16, packed panels) and the m = 4 Tri kernel (16 columns) on
// L1-resident operands — the shapes perfbench's kernel probe times.
func BenchmarkKernels(b *testing.B) {
	b.Run("gemm/s", func(b *testing.B) { benchGEMM[float32](b, 4) })
	b.Run("gemm/d", func(b *testing.B) { benchGEMM[float64](b, 2) })
	b.Run("tri/s", func(b *testing.B) { benchTri[float32](b, 4) })
	b.Run("tri/d", func(b *testing.B) { benchTri[float64](b, 2) })
}

func benchGEMM[E vec.Float](b *testing.B, vl int) {
	const k = 16
	rng := rand.New(rand.NewSource(1))
	pa, pb := randOperand[E](rng, 4*k*vl, false), randOperand[E](rng, 4*k*vl, false)
	c := make([]E, 16*vl)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GEMM(pa, pb, c, 4, 4, k, 4, vl, 1, true)
	}
	b.ReportMetric(float64(2*16*k*vl)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func benchTri[E vec.Float](b *testing.B, vl int) {
	const m, ncols = 4, 16
	tri := make([]E, m*(m+1)/2*vl)
	for i := 0; i < m; i++ {
		for l := 0; l < vl; l++ {
			tri[(i*(i+1)/2+i)*vl+l] = 1
		}
	}
	x := randOperand[E](rand.New(rand.NewSource(2)), ncols*m*vl, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Tri(tri, x, m, ncols, m, vl)
	}
	b.ReportMetric(float64(m*m*ncols*vl)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

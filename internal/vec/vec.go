// Package vec provides the 128-bit SIMD vector substrate the rest of the
// library is built on. It models ARMv8 NEON quad registers: a vector holds
// up to four lanes of a real floating-point element type, and operations
// mirror the NEON instructions the IATF kernel generator emits (FMUL, FMLA,
// FMLS, DUP). Complex data is handled above this layer as separate
// real/imaginary planes, exactly as the compact layout stores it.
package vec

import "math"

// Float is the set of real element types a NEON vector lane can hold.
type Float interface {
	~float32 | ~float64
}

// Width is the modeled SIMD register width in bytes (128-bit NEON).
const Width = 16

// V is one SIMD register: up to four lanes of E. For float32 all four
// lanes are active (P=4); for float64 only the first two are (P=2).
// Inactive lanes hold zero and are ignored by Store.
type V[E Float] [4]E

// Lanes reports the number of active lanes for element type E in a 128-bit
// register: 4 for float32, 2 for float64.
func Lanes[E Float]() int {
	var e E
	switch any(e).(type) {
	case float32:
		return 4
	default:
		return 2
	}
}

// Load fills the first n lanes of a vector from s[:n].
func Load[E Float](s []E, n int) V[E] {
	var v V[E]
	copy(v[:n], s[:n])
	return v
}

// Store writes the first n lanes of v to s[:n].
func Store[E Float](s []E, v V[E], n int) {
	copy(s[:n], v[:n])
}

// Dup broadcasts a scalar to all lanes (NEON DUP).
func Dup[E Float](x E) V[E] {
	return V[E]{x, x, x, x}
}

// Add returns a + b lane-wise (FADD).
func Add[E Float](a, b V[E]) V[E] {
	return V[E]{a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]}
}

// Sub returns a - b lane-wise (FSUB).
func Sub[E Float](a, b V[E]) V[E] {
	return V[E]{a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]}
}

// Mul returns a * b lane-wise (FMUL), rounded as a product of its own so
// a following Add or FMA never fuses with it.
func Mul[E Float](a, b V[E]) V[E] {
	return V[E]{E(a[0] * b[0]), E(a[1] * b[1]), E(a[2] * b[2]), E(a[3] * b[3])}
}

// Div returns a / b lane-wise (FDIV). The IATF packing kernels store
// reciprocals of TRSM diagonals precisely to keep this long-latency
// operation out of computing kernels; it exists here for the baselines
// and for packing itself.
func Div[E Float](a, b V[E]) V[E] {
	return V[E]{a[0] / b[0], a[1] / b[1], a[2] / b[2], a[3] / b[3]}
}

// FMA returns acc + a*b lane-wise (FMLA) with unfused semantics: the
// product is rounded to E before the add. The E(...) conversion is what
// guarantees it — the Go spec forbids fusing across an explicit
// conversion, while a bare acc + a*b may compile to a fused multiply-add
// (FMADD on arm64). One rounding rule on every host keeps the VM, the Go
// kernels and the amd64 kernels bit-identical.
func FMA[E Float](acc, a, b V[E]) V[E] {
	return V[E]{acc[0] + E(a[0]*b[0]), acc[1] + E(a[1]*b[1]), acc[2] + E(a[2]*b[2]), acc[3] + E(a[3]*b[3])}
}

// FMS returns acc - a*b lane-wise (FMLS), unfused like FMA. The TRSM
// rectangular kernel is built on FMLS so the -1 GEMM alpha costs no extra
// multiplies (paper Eq. 4).
func FMS[E Float](acc, a, b V[E]) V[E] {
	return V[E]{acc[0] - E(a[0]*b[0]), acc[1] - E(a[1]*b[1]), acc[2] - E(a[2]*b[2]), acc[3] - E(a[3]*b[3])}
}

// Neg returns -a lane-wise (FNEG).
func Neg[E Float](a V[E]) V[E] {
	return V[E]{-a[0], -a[1], -a[2], -a[3]}
}

// Zero returns the all-zero vector (MOVI #0).
func Zero[E Float]() V[E] {
	return V[E]{}
}

// Sqrt returns the lane-wise square root (FSQRT). Like FDIV it is a
// long-latency operation; the compact Cholesky keeps it to one use per
// diagonal element.
func Sqrt[E Float](a V[E]) V[E] {
	return V[E]{sqrtE(a[0]), sqrtE(a[1]), sqrtE(a[2]), sqrtE(a[3])}
}

func sqrtE[E Float](x E) E {
	return E(math.Sqrt(float64(x)))
}

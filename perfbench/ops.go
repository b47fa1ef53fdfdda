package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"iatf"
	"iatf/internal/core"
	"iatf/internal/matrix"
	"iatf/internal/vec"
)

// real is the element types the benchmark drives (the workloads use no
// complex data).
type real interface{ float32 | float64 }

type opKind int

const (
	kGEMM opKind = iota
	kTRSM
	kTRMM
	kSYRK
	kChain // Cholesky → TRSM → TRSM solve of A·X = B
)

func (k opKind) String() string {
	return [...]string{"gemm", "trsm", "trmm", "syrk", "chain"}[k]
}

// spec is one request identity: routine, dtype, modes and size.
type spec struct {
	kind    opKind
	f64     bool
	transB  iatf.Trans // GEMM only
	n       int        // every operand is n×n, except chain's B (n×chainRHS)
	count   int
	prepack bool // Prepack A and Invalidate it every invalidateEvery calls
	// alternate makes a TRSM instance run TRSM and TRMM with the same A
	// on alternate calls, so its in-place B stays bounded across reuse.
	alternate bool
}

// chainRHS is the right-hand-side width of the chain identity.
const chainRHS = 4

// invalidateEvery is the cadence of pack-cache writes on prepacked A
// operands: every invalidateEvery-th call of the identity retires the
// cached image first.
const invalidateEvery = 4

// maxChecked bounds how many matrices of a batch one verification
// compares against the oracle, so checking costs little next to the call.
const maxChecked = 64

func (s spec) dtype() string {
	if s.f64 {
		return "d"
	}
	return "s"
}

func (s spec) name() string {
	mode := ""
	if s.kind == kGEMM {
		mode = "_n" + map[iatf.Trans]string{iatf.NoTrans: "n", iatf.Transpose: "t"}[s.transB]
	}
	return fmt.Sprintf("%s%s%s_%dx%d", s.dtype(), s.kind, mode, s.n, s.count)
}

func (s spec) vecType() vec.DType {
	if s.f64 {
		return vec.D
	}
	return vec.S
}

// flops is the useful work of one call, from the core problem
// descriptors on the unpadded problem. Cholesky has no core descriptor;
// it is counted as n³/3 per matrix.
func (s spec) flops() float64 {
	dt := s.vecType()
	switch s.kind {
	case kGEMM:
		return core.GEMMProblem{DT: dt, M: s.n, N: s.n, K: s.n, Count: s.count}.FLOPs()
	case kTRSM:
		return core.TRSMProblem{DT: dt, M: s.n, N: s.n, Count: s.count}.FLOPs()
	case kTRMM:
		return core.TRMMProblem{DT: dt, M: s.n, N: s.n, Count: s.count}.FLOPs()
	case kSYRK:
		return core.SYRKProblem{DT: dt, N: s.n, K: s.n, Count: s.count}.FLOPs()
	}
	n := float64(s.n)
	tri := core.TRSMProblem{DT: dt, M: s.n, N: chainRHS, Count: s.count}.FLOPs()
	return n*n*n/3*float64(s.count) + 2*tri
}

// instance is one set of operands for one identity, with what is needed
// to check its output against the internal/matrix oracle.
type instance interface {
	spec() spec
	// prepare runs before call number i, outside the timed call: the
	// pack-cache invalidation cadence and the chain's input reset.
	prepare(i int)
	run(ctx context.Context, opts []iatf.Option) error
	// submit is run through the async queue.
	submit(ctx context.Context, opts []iatf.Option) (*iatf.Future, error)
	// snapshot records the inputs the next check compares against; only
	// in-place routines need it.
	snapshot()
	check() error
	// unpackOut times one Unpack of the written operand.
	unpackOut() time.Duration
	// packTimes returns the duration of every iatf.Pack call that built
	// the instance.
	packTimes() []time.Duration
}

// inst is the typed instance. Verification compares a seeded subset of
// at most maxChecked matrices of the batch.
type inst[T real] struct {
	s      spec
	a, b   *iatf.Compact[T]
	c      *iatf.Compact[T]
	a0, b0 *iatf.Compact[T] // chain: pristine inputs, cloned before each call
	kind   opKind           // the routine of the next call

	idx   []int
	aSub  []*matrix.Mat[T] // A of the checked matrices
	want  []*matrix.Mat[T] // GEMM/SYRK: fixed expected C; chain: B
	snap  []*matrix.Mat[T] // TRSM/TRMM: B before the call
	packs []time.Duration
}

func (x *inst[T]) spec() spec { return x.s }

func (x *inst[T]) packTimes() []time.Duration { return x.packs }

func randInto[T real](rng *rand.Rand, b *iatf.Batch[T]) *matrix.Batch[T] {
	mb := asMatrix(b)
	matrix.Fill(rng, mb.Data)
	return mb
}

// asMatrix views an iatf batch as the oracle's batch type (same storage).
func asMatrix[T real](b *iatf.Batch[T]) *matrix.Batch[T] {
	return &matrix.Batch[T]{Count: b.Count(), Rows: b.Rows(), Cols: b.Cols(), Data: b.Data()}
}

func (x *inst[T]) pack(b *iatf.Batch[T]) *iatf.Compact[T] {
	t0 := time.Now()
	c := iatf.Pack(b)
	x.packs = append(x.packs, time.Since(t0))
	return c
}

func subset(rng *rand.Rand, count int) []int {
	idx := rng.Perm(count)
	if len(idx) > maxChecked {
		idx = idx[:maxChecked]
	}
	sort.Ints(idx)
	return idx
}

func (x *inst[T]) mats(b *matrix.Batch[T]) []*matrix.Mat[T] {
	out := make([]*matrix.Mat[T], len(x.idx))
	for i, v := range x.idx {
		out[i] = b.Mat(v).Clone()
	}
	return out
}

// newInst builds one instance from rng. share, when non-nil, lends its A
// (and, for triangular routines, its B) so several instances read one
// operand: GEMM slots share A and B, TRSM and TRMM share A and B.
func newInst[T real](s spec, rng *rand.Rand, share *inst[T]) *inst[T] {
	x := &inst[T]{s: s, kind: s.kind}
	n, cnt := s.n, s.count
	if share != nil {
		x.idx, x.aSub, x.a = share.idx, share.aSub, share.a
	} else {
		x.idx = subset(rng, cnt)
	}
	switch s.kind {
	case kGEMM, kSYRK:
		if share == nil {
			ab := iatf.NewBatch[T](cnt, n, n)
			mb := randInto(rng, ab)
			x.a = x.pack(ab)
			x.aSub = x.mats(mb)
		}
		if s.kind == kGEMM {
			if share != nil {
				x.b, x.want = share.b, share.want
			} else {
				bb := iatf.NewBatch[T](cnt, n, n)
				mbb := randInto(rng, bb)
				x.b = x.pack(bb)
				bSub := x.mats(mbb)
				x.want = make([]*matrix.Mat[T], len(x.idx))
				for i := range x.idx {
					w := matrix.New[T](n, n)
					matrix.RefGEMM(iatf.NoTrans, s.transB, 1, x.aSub[i], bSub[i], 0, w)
					x.want[i] = w
				}
			}
		} else if share != nil {
			x.want = share.want
		} else {
			x.want = make([]*matrix.Mat[T], len(x.idx))
			for i := range x.idx {
				w := matrix.New[T](n, n)
				matrix.RefSYRK(iatf.Lower, iatf.NoTrans, 1, x.aSub[i], 0, w)
				x.want[i] = w
			}
		}
		// beta = 0: C is overwritten, so reused C needs no reset and the
		// expected result never changes.
		x.c = x.pack(iatf.NewBatch[T](cnt, n, n))
	case kTRSM, kTRMM:
		if share == nil {
			mb := matrix.RandTriangularBatch[T](rng, cnt, n)
			ab := iatf.NewBatch[T](cnt, n, n)
			copy(ab.Data(), mb.Data)
			x.a = x.pack(ab)
			x.aSub = x.mats(mb)
		}
		if share != nil && share.b != nil && s.kind != share.s.kind {
			x.b = share.b // the TRSM/TRMM pair of one size works on one B
		} else {
			bb := iatf.NewBatch[T](cnt, n, n)
			randInto(rng, bb)
			x.b = x.pack(bb)
		}
	case kChain:
		mb := spdBatch[T](rng, cnt, n)
		ab := iatf.NewBatch[T](cnt, n, n)
		copy(ab.Data(), mb.Data)
		x.a0 = x.pack(ab)
		x.aSub = x.mats(mb)
		bb := iatf.NewBatch[T](cnt, n, chainRHS)
		x.want = x.mats(randInto(rng, bb))
		x.b0 = x.pack(bb)
		x.prepare(0)
	}
	if s.prepack {
		x.a.Prepack()
	}
	return x
}

// spdBatch returns symmetric positive definite matrices M·Mᵀ + n·I.
func spdBatch[T real](rng *rand.Rand, count, n int) *matrix.Batch[T] {
	m := matrix.RandBatch[T](rng, count, n, n)
	out := matrix.NewBatch[T](count, n, n)
	for v := 0; v < count; v++ {
		a, o := m.Mat(v), out.Mat(v)
		matrix.RefGEMM(iatf.NoTrans, iatf.Transpose, 1, a, a, 0, o)
		for i := 0; i < n; i++ {
			o.Set(i, i, o.At(i, i)+T(n))
		}
	}
	return out
}

func (x *inst[T]) prepare(i int) {
	if x.s.kind == kChain {
		x.a, x.b = x.a0.Clone(), x.b0.Clone()
		return
	}
	if x.s.prepack && i%invalidateEvery == invalidateEvery-1 {
		x.a.Invalidate()
	}
	if x.s.alternate {
		if i%2 == 0 {
			x.kind = x.s.kind
		} else {
			x.kind = kTRSM + kTRMM - x.s.kind
		}
	}
}

func (x *inst[T]) request() iatf.Request[T] {
	r := iatf.Request[T]{Alpha: 1, A: x.a}
	switch x.kind {
	case kGEMM:
		r.Op, r.TransB, r.B, r.C = iatf.OpGEMM, x.s.transB, x.b, x.c
	case kTRSM:
		r.Op, r.Side, r.Uplo, r.B = iatf.OpTRSM, iatf.Left, iatf.Lower, x.b
	case kTRMM:
		r.Op, r.Side, r.Uplo, r.B = iatf.OpTRMM, iatf.Left, iatf.Lower, x.b
	case kSYRK:
		r.Op, r.Uplo, r.C = iatf.OpSYRK, iatf.Lower, x.c
	}
	return r
}

func (x *inst[T]) run(ctx context.Context, opts []iatf.Option) error {
	if x.kind == kChain {
		stages := []iatf.Stage[T]{
			iatf.CholeskyStage(x.a),
			iatf.TRSMStage(iatf.Left, iatf.Lower, iatf.NoTrans, iatf.NonUnit, 1, x.a, x.b),
			iatf.TRSMStage(iatf.Left, iatf.Lower, iatf.Transpose, iatf.NonUnit, 1, x.a, x.b),
		}
		return iatf.Chain(ctx, stages, opts...)
	}
	return iatf.Do(ctx, x.request(), opts...)
}

func (x *inst[T]) submit(ctx context.Context, opts []iatf.Option) (*iatf.Future, error) {
	return iatf.Submit(ctx, x.request(), opts...)
}

func (x *inst[T]) snapshot() {
	if x.kind == kTRSM || x.kind == kTRMM {
		x.snap = x.mats(asMatrix(x.b.Unpack()))
	}
}

// check compares the checked matrices of the written operand with the
// oracle: GEMM/SYRK against the fixed expected C, TRSM/TRMM against the
// routine applied to the snapshot, and the chain by the residual A·X − B.
func (x *inst[T]) check() error {
	n := x.s.n
	switch x.kind {
	case kGEMM, kSYRK:
		got := asMatrix(x.c.Unpack())
		for i, v := range x.idx {
			g := got.Mat(v)
			if x.kind == kSYRK {
				// Only the lower triangle of a SYRK result is defined.
				for j := 0; j < n; j++ {
					for r := 0; r < j; r++ {
						g.Set(r, j, x.want[i].At(r, j))
					}
				}
			}
			if !matrix.WithinTol(g.Data, x.want[i].Data, matrix.Tol[T](n)) {
				return x.mismatch(v, matrix.MaxAbsDiff(g.Data, x.want[i].Data))
			}
		}
	case kTRSM, kTRMM:
		got := asMatrix(x.b.Unpack())
		for i, v := range x.idx {
			w := x.snap[i].Clone()
			if x.kind == kTRSM {
				matrix.RefTRSM(iatf.Left, iatf.Lower, iatf.NoTrans, iatf.NonUnit, 1, x.aSub[i], w)
			} else {
				matrix.RefTRMM(iatf.Left, iatf.Lower, iatf.NoTrans, iatf.NonUnit, 1, x.aSub[i], w)
			}
			if g := got.Mat(v); !matrix.WithinTol(g.Data, w.Data, matrix.Tol[T](n)) {
				return x.mismatch(v, matrix.MaxAbsDiff(g.Data, w.Data))
			}
		}
	case kChain:
		got := asMatrix(x.b.Unpack())
		for i, v := range x.idx {
			r := matrix.New[T](n, chainRHS)
			matrix.RefGEMM(iatf.NoTrans, iatf.NoTrans, 1, x.aSub[i], got.Mat(v), 0, r)
			if !matrix.WithinTol(r.Data, x.want[i].Data, matrix.Tol[T](n*n)) {
				return x.mismatch(v, matrix.MaxAbsDiff(r.Data, x.want[i].Data))
			}
		}
	}
	return nil
}

func (x *inst[T]) unpackOut() time.Duration {
	out := x.c
	if out == nil {
		out = x.b
	}
	t0 := time.Now()
	out.Unpack()
	return time.Since(t0)
}

func (x *inst[T]) mismatch(v int, diff float64) error {
	return fmt.Errorf("%s (%s): matrix %d differs from the oracle by %g", x.s.name(), x.kind, v, diff)
}

// build constructs an instance of either element type.
func build(s spec, rng *rand.Rand, share instance) instance {
	if s.f64 {
		sh, _ := share.(*inst[float64])
		return newInst[float64](s, rng, sh)
	}
	sh, _ := share.(*inst[float32])
	return newInst[float32](s, rng, sh)
}

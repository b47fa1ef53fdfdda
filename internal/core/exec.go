package core

import (
	"fmt"

	"iatf/internal/asm"
	"iatf/internal/layout"
	"iatf/internal/machine"
	"iatf/internal/matrix"
	"iatf/internal/pack"
	"iatf/internal/vec"
)

// arena is the flat memory one plan execution runs against: the compact
// operands followed by the packing buffers and the scalar parameter block.
// Element offsets double as the simulated address space, so the cycle
// model sees the same spatial locality the plan creates.
type arena[E vec.Float] struct {
	mem    []E
	vl, bl int
	groups int
}

// replayPacking charges the recorded packing traffic to the pipeline
// model: one vector load + one vector store per block copied (the
// "memcpy" packing kernels of §4.4), plus the reciprocal divisions of
// triangle packing.
func replayPacking(sim *machine.Sim, rec *pack.Recorder, vl int) {
	if sim == nil || rec == nil {
		return
	}
	// Issue in waves of eight loads then eight stores so outstanding
	// misses overlap (the memcpy packing loop has full memory-level
	// parallelism).
	type chunk struct{ src, dst int }
	var wave [8]chunk
	n := 0
	flush := func() {
		for i := 0; i < n; i++ {
			sim.Exec(asm.Instr{Op: asm.LDR, D: uint8(i), P: asm.P5}, wave[i].src)
		}
		for i := 0; i < n; i++ {
			sim.Exec(asm.Instr{Op: asm.STR, D: uint8(i), P: asm.P6}, wave[i].dst)
		}
		n = 0
	}
	for _, op := range rec.Ops {
		for off := 0; off < op.Len; off += vl {
			wave[n] = chunk{op.Src + off, op.Dst + off}
			n++
			if n == len(wave) {
				flush()
			}
		}
	}
	flush()
	reg := uint8(0)
	for n := 0; n < rec.Divs; n += vl {
		sim.Exec(asm.Instr{Op: asm.FDIV, D: reg, A: reg, B: reg}, -1)
		reg = (reg + 1) % 8
	}
	rec.Ops = rec.Ops[:0]
	rec.Divs = 0
}

// kernelDispatchCycles models the plan executor's per-kernel-invocation
// bookkeeping (loop control, pointer setup) in the cycle model. The native
// backend pays the real Go equivalent; the paper's generated code pays a
// branch and a handful of scalar ops.
const kernelDispatchCycles = 12

// gemmOffsets lays out the GEMM arena. Lengths are per group.
type gemmOffsets struct {
	a, b, c          int
	lenA, lenB, lenC int
	packA, packB     int
	alpha            int
	total            int
}

func gemmLayout(pl *GEMMPlan, groups int) gemmOffsets {
	p := pl.P
	bl := blockLen(p.DT, pl.Tun.lanes(p.DT))
	var o gemmOffsets
	o.lenA = p.M * p.K * bl
	o.lenB = p.K * p.N * bl
	o.lenC = p.M * p.N * bl
	o.a = 0
	o.b = o.a + groups*o.lenA
	o.c = o.b + groups*o.lenB
	o.packA = o.c + groups*o.lenC
	pa := 0
	if pl.simPackA {
		pa = pl.GroupsPerBatch * o.lenA
	}
	o.packB = o.packA + pa
	o.alpha = o.packB + pl.GroupsPerBatch*o.lenB
	o.total = o.alpha + 2
	return o
}

// runGEMM executes the plan over an arena holding `groups` groups,
// optionally feeding every instruction to the pipeline model.
func runGEMM[E vec.Float](pl *GEMMPlan, ar *arena[E], o gemmOffsets, sim *machine.Sim) error {
	p := pl.P
	vm := &asm.VM[E]{Mem: ar.mem}
	if sim != nil {
		vm.Trace = func(in asm.Instr, addr int) { sim.Exec(in, addr) }
	}
	var rec *pack.Recorder
	if sim != nil {
		rec = &pack.Recorder{}
	}
	ctx := &pack.Ctx[E]{Mem: ar.mem, DT: p.DT, VL: ar.vl, Rec: rec}

	// Scalar parameter block.
	ar.mem[o.alpha] = E(real(p.Alpha))
	ar.mem[o.alpha+1] = E(imag(p.Alpha))

	transA := p.TransA == matrix.Transpose
	transB := p.TransB == matrix.Transpose
	aRows, aCols := p.M, p.K
	if transA {
		aRows, aCols = p.K, p.M
	}
	bRows, bCols := p.K, p.N
	if transB {
		bRows, bCols = p.N, p.K
	}

	gb := pl.GroupsPerBatch
	for sb := 0; sb < ar.groups; sb += gb {
		end := sb + gb
		if end > ar.groups {
			end = ar.groups
		}
		// Packing pass for the super-batch.
		for g := sb; g < end; g++ {
			slot := g - sb
			if pl.simPackA {
				srcA := pack.Geom{Off: o.a + g*o.lenA, Rows: aRows, Cols: aCols, BlockLen: ar.bl}
				dst := o.packA + slot*o.lenA
				i0 := 0
				for _, mc := range pl.MTiles {
					dst += pack.GEMMA(ctx, srcA, transA, i0, mc, dst)
					i0 += mc
				}
			}
			srcB := pack.Geom{Off: o.b + g*o.lenB, Rows: bRows, Cols: bCols, BlockLen: ar.bl}
			dst := o.packB + slot*o.lenB
			j0 := 0
			for _, nc := range pl.NTiles {
				dst += pack.GEMMB(ctx, srcB, transB, j0, nc, dst)
				j0 += nc
			}
		}
		replayPacking(sim, rec, ar.vl)

		// Compute pass.
		for g := sb; g < end; g++ {
			slot := g - sb
			if p.Beta != 1 {
				geomC := pack.Geom{Off: o.c + g*o.lenC, Rows: p.M, Cols: p.N, BlockLen: ar.bl}
				pack.Scale(ctx, geomC, real(p.Beta), imag(p.Beta))
				replayPacking(sim, rec, ar.vl)
			}
			for _, t := range pl.tiles {
				kOff := 0
				for ci, kc := range pl.KChunks {
					if sim != nil {
						sim.AddCycles(kernelDispatchCycles)
					}
					if pl.simPackA {
						vm.P[asm.PA] = o.packA + slot*o.lenA + (t.i0*p.K+kOff*t.mc)*ar.bl
					} else {
						vm.P[asm.PA] = o.a + g*o.lenA + kOff*p.M*ar.bl
					}
					vm.P[asm.PB] = o.packB + slot*o.lenB + (t.j0*p.K+kOff*t.nc)*ar.bl
					vm.P[asm.PC] = o.c + g*o.lenC + (t.j0*p.M+t.i0)*ar.bl
					vm.P[asm.PAlpha] = o.alpha
					if err := vm.Run(t.progs[ci]); err != nil {
						return fmt.Errorf("core: tile (%d,%d) chunk %d: %w", t.i0, t.j0, ci, err)
					}
					kOff += kc
				}
			}
		}
	}
	return nil
}

// ExecGEMM runs the plan functionally (and, when sim is non-nil, through
// the pipeline model) on compact operands with the native interleave
// factor. C is updated in place.
func ExecGEMM[E vec.Float](pl *GEMMPlan, a, b, c *layout.Compact[E], sim *machine.Sim) error {
	p := pl.P
	if a.Type != p.DT || b.Type != p.DT || c.Type != p.DT {
		return fmt.Errorf("core: dtype mismatch")
	}
	if a.Count != p.Count || b.Count != p.Count || c.Count != p.Count {
		return fmt.Errorf("core: batch count mismatch")
	}
	wantAR, wantAC := p.M, p.K
	if p.TransA == matrix.Transpose {
		wantAR, wantAC = p.K, p.M
	}
	wantBR, wantBC := p.K, p.N
	if p.TransB == matrix.Transpose {
		wantBR, wantBC = p.N, p.K
	}
	if a.Rows != wantAR || a.Cols != wantAC || b.Rows != wantBR || b.Cols != wantBC ||
		c.Rows != p.M || c.Cols != p.N {
		return fmt.Errorf("core: shape mismatch A=%dx%d B=%dx%d C=%dx%d for %dx%dx%d %s",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols, p.M, p.N, p.K, p.Mode())
	}
	if pl.Tun.VL != 0 && pl.Tun.VL != p.DT.Pack() {
		return fmt.Errorf("core: ExecGEMM requires the native lane count; use SimGEMM for the %d-lane model", pl.Tun.VL)
	}

	groups := a.Groups()
	o := gemmLayout(pl, groups)
	ar := &arena[E]{mem: make([]E, o.total), vl: p.DT.Pack(), bl: blockLen(p.DT, p.DT.Pack()), groups: groups}
	copy(ar.mem[o.a:], a.Data)
	copy(ar.mem[o.b:], b.Data)
	copy(ar.mem[o.c:], c.Data)
	if err := runGEMM(pl, ar, o, sim); err != nil {
		return err
	}
	copy(c.Data, ar.mem[o.c:o.c+groups*o.lenC])
	return nil
}

// SimGEMM executes the plan on a synthetic random arena purely for
// timing, returning the pipeline model's cycles. It supports lane-count
// overrides (the MKL-compact AVX-512 model) and simulates `groups`
// interleave groups.
func SimGEMM(pl *GEMMPlan, groups int, sim *machine.Sim) (int64, error) {
	p := pl.P
	o := gemmLayout(pl, groups)
	vl := pl.Tun.lanes(p.DT)
	run := func(mem64 bool) error {
		if mem64 {
			ar := &arena[float64]{mem: make([]float64, o.total), vl: vl, bl: blockLen(p.DT, vl), groups: groups}
			fillArena(ar.mem)
			return runGEMM(pl, ar, o, sim)
		}
		ar := &arena[float32]{mem: make([]float32, o.total), vl: vl, bl: blockLen(p.DT, vl), groups: groups}
		fillArena(ar.mem)
		return runGEMM(pl, ar, o, sim)
	}
	if err := run(p.DT.ElemBytes() == 8); err != nil {
		return 0, err
	}
	return sim.Cycles(), nil
}

// fillArena writes a cheap nonzero pattern (values in (0,1)) so simulated
// kernels never divide by zero or denormal-trap.
func fillArena[E vec.Float](mem []E) {
	x := 0.5
	for i := range mem {
		x = x*0.9 + 0.05
		if x > 0.95 {
			x = 0.3
		}
		mem[i] = E(x)
	}
}

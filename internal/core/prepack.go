package core

import (
	"fmt"

	"iatf/internal/layout"
	"iatf/internal/matrix"
	"iatf/internal/pack"
	"iatf/internal/vec"
)

// Pack-once operand reuse: the packed image an operand takes inside a
// super-batch slot is a pure function of (operand contents, plan
// geometry) — per-group, the slot layouts written by npackA/npackB/
// npackTri are identical for every slot. A prepacked buffer therefore
// simply stores every group's packed image back to back, indexed by the
// group number instead of the slot number, and the executors jump
// straight to the kernel loop. Scalars never enter the packed data
// (alpha/beta apply to B/C at compute time; the reciprocal diagonal is a
// plan property, chosen by which Prepack* routine ran), so one prepacked
// image serves any scalar combination.

// PrepackALen returns the element length of a full prepacked A for
// `groups` interleave groups, or 0 when the plan reads A in place and
// prepacking is pointless.
func (pl *GEMMPlan) PrepackALen(groups int) int {
	if !pl.PackA {
		return 0
	}
	bl := blockLen(pl.P.DT, pl.P.DT.Pack())
	return groups * pl.P.M * pl.P.K * bl
}

// PrepackBLen is PrepackALen for the B operand.
func (pl *GEMMPlan) PrepackBLen(groups int) int {
	if !pl.PackB {
		return 0
	}
	bl := blockLen(pl.P.DT, pl.P.DT.Pack())
	return groups * pl.P.K * pl.P.N * bl
}

// PrepackGEMMA packs every group of A into dst in the executor's
// N-shaped row-panel order. dst must hold PrepackALen(a.Groups())
// elements.
func PrepackGEMMA[E vec.Float](pl *GEMMPlan, a *layout.Compact[E], dst []E) error {
	p := pl.P
	if !pl.PackA {
		return fmt.Errorf("core: plan reads A in place; nothing to prepack")
	}
	want := pl.PrepackALen(a.Groups())
	if len(dst) < want {
		return fmt.Errorf("core: prepack A buffer has %d elements, need %d", len(dst), want)
	}
	bl := blockLen(p.DT, p.DT.Pack())
	lenA := p.M * p.K * bl
	trans := p.TransA == matrix.Transpose
	for g := 0; g < a.Groups(); g++ {
		npackA(a.Data[g*lenA:(g+1)*lenA], a.Rows, trans, pl.MTiles, p.K, bl, dst[g*lenA:])
	}
	return nil
}

// PrepackGEMMB packs every group of B into dst in the executor's
// Z-shaped column-panel order. dst must hold PrepackBLen(b.Groups())
// elements.
func PrepackGEMMB[E vec.Float](pl *GEMMPlan, b *layout.Compact[E], dst []E) error {
	p := pl.P
	if !pl.PackB {
		return fmt.Errorf("core: plan reads B in place; nothing to prepack")
	}
	want := pl.PrepackBLen(b.Groups())
	if len(dst) < want {
		return fmt.Errorf("core: prepack B buffer has %d elements, need %d", len(dst), want)
	}
	bl := blockLen(p.DT, p.DT.Pack())
	lenB := p.K * p.N * bl
	trans := p.TransB == matrix.Transpose
	for g := 0; g < b.Groups(); g++ {
		npackB(b.Data[g*lenB:(g+1)*lenB], b.Rows, trans, pl.NTiles, p.K, bl, dst[g*lenB:])
	}
	return nil
}

// PrepackTriLen returns the element length of a full prepacked triangle
// for `groups` interleave groups.
func (pl *TRSMPlan) PrepackTriLen(groups int) int {
	bl := blockLen(pl.P.DT, pl.P.DT.Pack())
	return groups * pack.TriLen(bl, pl.Panels)
}

// PrepackTRSMTri packs every group of the triangle into dst with the
// reciprocal diagonal the TRSM solve kernels consume. dst must hold
// PrepackTriLen(a.Groups()) elements.
func PrepackTRSMTri[E vec.Float](pl *TRSMPlan, a *layout.Compact[E], dst []E) error {
	p := pl.P
	want := pl.PrepackTriLen(a.Groups())
	if len(dst) < want {
		return fmt.Errorf("core: prepack tri buffer has %d elements, need %d", len(dst), want)
	}
	vl := p.DT.Pack()
	bl := blockLen(p.DT, vl)
	lenA := pl.MEff * pl.MEff * bl
	lenTri := pack.TriLen(bl, pl.Panels)
	transAEff := p.TransA == matrix.Transpose
	if p.Side == matrix.Right {
		transAEff = !transAEff
	}
	effUpper := (p.Uplo == matrix.Upper) != transAEff
	for g := 0; g < a.Groups(); g++ {
		npackTri(a.Data[g*lenA:(g+1)*lenA], pl.MEff, effUpper, transAEff,
			p.Diag == matrix.Unit, true, pl.Panels, p.DT.IsComplex(), vl, bl, dst[g*lenTri:])
	}
	return nil
}

// PrepackTriLen is the TRMM twin of TRSMPlan.PrepackTriLen.
func (pl *TRMMPlan) PrepackTriLen(groups int) int {
	bl := blockLen(pl.P.DT, pl.P.DT.Pack())
	return groups * pack.TriLen(bl, pl.Panels)
}

// PrepackTRMMTri packs every group of the triangle into dst with the
// true diagonal the TRMM multiply kernels consume.
func PrepackTRMMTri[E vec.Float](pl *TRMMPlan, a *layout.Compact[E], dst []E) error {
	p := pl.P
	want := pl.PrepackTriLen(a.Groups())
	if len(dst) < want {
		return fmt.Errorf("core: prepack tri buffer has %d elements, need %d", len(dst), want)
	}
	vl := p.DT.Pack()
	bl := blockLen(p.DT, vl)
	lenA := pl.MEff * pl.MEff * bl
	lenTri := pack.TriLen(bl, pl.Panels)
	transAEff := p.TransA == matrix.Transpose
	if p.Side == matrix.Right {
		transAEff = !transAEff
	}
	effUpper := (p.Uplo == matrix.Upper) != transAEff
	for g := 0; g < a.Groups(); g++ {
		npackTri(a.Data[g*lenA:(g+1)*lenA], pl.MEff, effUpper, transAEff,
			p.Diag == matrix.Unit, false, pl.Panels, p.DT.IsComplex(), vl, bl, dst[g*lenTri:])
	}
	return nil
}

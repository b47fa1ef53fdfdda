package core

import (
	"fmt"

	"iatf/internal/bufpool"
	"iatf/internal/kernels"
	"iatf/internal/layout"
	"iatf/internal/matrix"
	"iatf/internal/pack"
	"iatf/internal/vec"
)

// The native backend executes plans with the native kernels (the amd64
// AVX kernels where they apply, else the Go kernels) directly on the
// compact storage — no simulation arena, no copies. Packing is done
// with the same panel orders as the pack package (the VM/native
// backend-equivalence tests pin them to each other bit for bit), but
// reads and writes separate slices so operands stay in place.
//
// Group-level parallelism implements the paper's stated future work
// (multi-core): interleave groups are fully independent, so the sched
// worker pool pulls super-batch-sized chunks of the group range, each
// chunk packing into pooled buffers. workers <= 0 means auto
// (GOMAXPROCS); see sched.Resolve.

// npackA packs the A row panels of one group (N-shape).
func npackA[E vec.Float](src []E, rows int, trans bool, mtiles []int, k, bl int, dst []E) {
	cur := 0
	i0 := 0
	for _, mc := range mtiles {
		if !trans {
			run := mc * bl
			s := i0 * bl
			for l := 0; l < k; l++ {
				copy(dst[cur:cur+run], src[s:s+run])
				s += rows * bl
				cur += run
			}
		} else {
			colStride := rows * bl
			base := i0 * colStride
			for l := 0; l < k; l++ {
				s := base + l*bl
				for r := 0; r < mc; r++ {
					copy(dst[cur:cur+bl], src[s:s+bl])
					s += colStride
					cur += bl
				}
			}
		}
		i0 += mc
	}
}

// npackB packs the B column panels of one group (Z-shape).
func npackB[E vec.Float](src []E, rows int, trans bool, ntiles []int, k, bl int, dst []E) {
	cur := 0
	j0 := 0
	for _, nc := range ntiles {
		if !trans {
			colStride := rows * bl
			base := j0 * colStride
			for l := 0; l < k; l++ {
				s := base + l*bl
				for cc := 0; cc < nc; cc++ {
					copy(dst[cur:cur+bl], src[s:s+bl])
					s += colStride
					cur += bl
				}
			}
		} else {
			run := nc * bl
			s := j0 * bl
			for l := 0; l < k; l++ {
				copy(dst[cur:cur+run], src[s:s+run])
				s += rows * bl
				cur += run
			}
		}
		j0 += nc
	}
}

// nscale scales a dense group region by a (possibly complex) scalar.
func nscale[E vec.Float](data []E, n int, cplx bool, vl int, re, im float64) {
	if !cplx {
		r := E(re)
		for i := 0; i < n*vl; i++ {
			data[i] *= r
		}
		return
	}
	for b := 0; b < n; b++ {
		off := b * 2 * vl
		for lane := 0; lane < vl; lane++ {
			x := float64(data[off+lane])
			y := float64(data[off+vl+lane])
			data[off+lane] = E(float64(x*re) - float64(y*im))
			data[off+vl+lane] = E(float64(x*im) + float64(y*re))
		}
	}
}

// ExecGEMMNative runs the plan with the native Go kernels, optionally
// with worker-parallel groups. C is updated in place.
func ExecGEMMNative[E vec.Float](pl *GEMMPlan, a, b, c *layout.Compact[E]) error {
	return ExecGEMMNativeParallel(pl, a, b, c, 1)
}

// ExecGEMMNativeParallel is ExecGEMMNative with `workers` participants
// from the persistent worker pool splitting the interleave groups into
// super-batch chunks. workers <= 0 means auto (GOMAXPROCS).
func ExecGEMMNativeParallel[E vec.Float](pl *GEMMPlan, a, b, c *layout.Compact[E], workers int) error {
	return ExecGEMMNativePrepacked(pl, a, b, c, nil, nil, workers)
}

// ExecGEMMNativePrepacked is ExecGEMMNativeParallel consuming prepacked
// operand images: preA/preB, when non-nil, must hold the output of
// PrepackGEMMA/PrepackGEMMB for this plan (group-indexed, per
// PrepackALen/PrepackBLen), and the corresponding pack pass is skipped.
// A nil pre-buffer falls back to packing that operand per call.
func ExecGEMMNativePrepacked[E vec.Float](pl *GEMMPlan, a, b, c *layout.Compact[E], preA, preB []E, workers int) error {
	p := pl.P
	if pl.Tun.VL != 0 && pl.Tun.VL != p.DT.Pack() {
		return fmt.Errorf("core: native execution requires the native lane count")
	}
	if a.Type != p.DT || b.Type != p.DT || c.Type != p.DT {
		return fmt.Errorf("core: dtype mismatch")
	}
	if a.Count != p.Count || b.Count != p.Count || c.Count != p.Count {
		return fmt.Errorf("core: batch count mismatch")
	}
	wantAR := p.M
	if p.TransA == matrix.Transpose {
		wantAR = p.K
	}
	wantBR := p.K
	if p.TransB == matrix.Transpose {
		wantBR = p.N
	}
	if a.Rows != wantAR || b.Rows != wantBR || c.Rows != p.M || c.Cols != p.N {
		return fmt.Errorf("core: shape mismatch A=%dx%d B=%dx%d C=%dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols)
	}
	if preA != nil && len(preA) < pl.PrepackALen(a.Groups()) {
		return fmt.Errorf("core: prepacked A has %d elements, need %d", len(preA), pl.PrepackALen(a.Groups()))
	}
	if preB != nil && len(preB) < pl.PrepackBLen(b.Groups()) {
		return fmt.Errorf("core: prepacked B has %d elements, need %d", len(preB), pl.PrepackBLen(b.Groups()))
	}
	pl.RT.or().Sched.RunLabeled(pl.Labels, a.Groups(), workers, pl.GroupsPerBatch, func(lo, hi int) {
		gemmWorker(pl, a, b, c, preA, preB, lo, hi)
	})
	return nil
}

// gemmPackChunk packs groups [sb, end) of A/B into slots starting at
// slotBase; a nil slot array means that operand needs no packing (fast
// path or prepacked image). Shared by the synchronous pack pass and the
// pipeline packers.
func gemmPackChunk[E vec.Float](pl *GEMMPlan, a, b *layout.Compact[E], packA, packB []E, sb, end, slotBase int) {
	p := pl.P
	bl := blockLen(p.DT, p.DT.Pack())
	lenA := p.M * p.K * bl
	lenB := p.K * p.N * bl
	transA := p.TransA == matrix.Transpose
	transB := p.TransB == matrix.Transpose
	for g := sb; g < end; g++ {
		slot := slotBase + (g - sb)
		if packA != nil {
			npackA(a.Data[g*lenA:(g+1)*lenA], a.Rows, transA, pl.MTiles, p.K, bl, packA[slot*lenA:])
		}
		if packB != nil {
			npackB(b.Data[g*lenB:(g+1)*lenB], b.Rows, transB, pl.NTiles, p.K, bl, packB[slot*lenB:])
		}
	}
}

func gemmWorker[E vec.Float](pl *GEMMPlan, a, b, c *layout.Compact[E], preA, preB []E, gLo, gHi int) {
	p := pl.P
	vl := p.DT.Pack()
	bl := blockLen(p.DT, vl)
	cplx := p.DT.IsComplex()
	lenA := p.M * p.K * bl
	lenB := p.K * p.N * bl
	lenC := p.M * p.N * bl

	transB := p.TransB == matrix.Transpose

	gb := pl.GroupsPerBatch
	needPackA := pl.PackA && preA == nil
	needPackB := pl.PackB && preB == nil

	// The pipeline engages when there is a pack pass to hide and at
	// least two super-batches to overlap; the slot arrays then double in
	// width and a packer goroutine fills the half the compute pass is
	// not reading (see pipeline.go for the parity protocol).
	pipelined := (needPackA || needPackB) && gHi-gLo > gb
	nBuf := 1
	if pipelined {
		nBuf = 2
	}
	rt := pl.RT.or()
	var packA, packB []E
	if needPackA {
		bufA := bufpool.Get[E](rt.Bufs, nBuf*gb*lenA)
		defer bufpool.Put(rt.Bufs, bufA)
		packA = bufA.Slice()
	}
	if needPackB {
		bufB := bufpool.Get[E](rt.Bufs, nBuf*gb*lenB)
		defer bufpool.Put(rt.Bufs, bufB)
		packB = bufB.Slice()
	}

	var pipe *gemmPipe[E]
	if pipelined {
		pipe = getGEMMPipe[E]()
		pipe.pl, pipe.a, pipe.b = pl, a, b
		pipe.packA, pipe.packB = packA, packB
		pipe.gLo, pipe.gHi = gLo, gHi
		pipe.free <- 0
		pipe.free <- 1
		if !submitPipe(pipe) {
			<-pipe.free
			<-pipe.free
			putGEMMPipe(pipe)
			pipe, pipelined = nil, false
			pipeFallbacks.Add(1)
		}
	}

	alphaRe, alphaIm := E(real(p.Alpha)), E(imag(p.Alpha))
	nChunks := (gHi - gLo + gb - 1) / gb
	ci := 0
	for sb := gLo; sb < gHi; sb += gb {
		end := sb + gb
		if end > gHi {
			end = gHi
		}
		slotBase := 0
		if pipelined {
			var par int
			select {
			case par = <-pipe.ready:
			default:
				pipeStalls.Add(1)
				par = <-pipe.ready
			}
			slotBase = par * gb
		} else if needPackA || needPackB {
			gemmPackChunk(pl, a, b, packA, packB, sb, end, 0)
		}
		for g := sb; g < end; g++ {
			slot := slotBase + (g - sb)
			cg := c.Data[g*lenC : (g+1)*lenC]
			ovw := p.Beta == 0
			if p.Beta != 1 && !ovw {
				nscale(cg, p.M*p.N, cplx, vl, real(p.Beta), imag(p.Beta))
			}
			for _, t := range pl.tiles {
				kOff := 0
				for _, kc := range pl.KChunks {
					// Operands the pack selector left in place are read
					// at their compact strides; packed panels (per call
					// or prepacked) at the panel strides.
					var pa, pb []E
					st := kernels.Strides{A: t.mc, BK: t.nc, BN: 1, C: p.M}
					switch {
					case !pl.PackA:
						pa = a.Data[g*lenA+(kOff*p.M+t.i0)*bl:]
						st.A = p.M
					case preA != nil:
						pa = preA[g*lenA+(t.i0*p.K+kOff*t.mc)*bl:]
					default:
						pa = packA[slot*lenA+(t.i0*p.K+kOff*t.mc)*bl:]
					}
					switch {
					case !pl.PackB && transB:
						pb = b.Data[g*lenB+(kOff*p.N+t.j0)*bl:]
						st.BK = p.N
					case !pl.PackB:
						pb = b.Data[g*lenB+(t.j0*p.K+kOff)*bl:]
						st.BK, st.BN = 1, p.K
					case preB != nil:
						pb = preB[g*lenB+(t.j0*p.K+kOff*t.nc)*bl:]
					default:
						pb = packB[slot*lenB+(t.j0*p.K+kOff*t.nc)*bl:]
					}
					cb := cg[(t.j0*p.M+t.i0)*bl:]
					// Only the first chunk may overwrite (beta = 0);
					// later chunks always accumulate.
					chunkOvw := ovw && kOff == 0
					if cplx {
						kernels.GEMMCplx(pa, pb, cb, t.mc, t.nc, kc, p.M, vl, alphaRe, alphaIm, chunkOvw)
					} else {
						kernels.GEMMStrided(pa, pb, cb, t.mc, t.nc, kc, st, vl, alphaRe, chunkOvw)
					}
					kOff += kc
				}
			}
		}
		if pipelined && ci+2 < nChunks {
			pipe.free <- slotBase / gb
		}
		ci++
	}
	if pipelined {
		putGEMMPipe(pipe)
	}
}

// npackTri packs the triangle of one group — the native twin of
// pack.Tri. recip stores the diagonal as reciprocals (TRSM); TRMM packs
// the true diagonal.
func npackTri[E vec.Float](src []E, m int, reverse, swap, unit, recip bool, panels []int, cplx bool, vl, bl int, dst []E) {
	cur := 0
	srcBlock := func(i, j int) int {
		if reverse {
			i, j = m-1-i, m-1-j
		}
		if swap {
			i, j = j, i
		}
		return (j*m + i) * bl
	}
	r0 := 0
	for _, q := range panels {
		for l := 0; l < r0; l++ {
			for r := 0; r < q; r++ {
				s := srcBlock(r0+r, l)
				copy(dst[cur:cur+bl], src[s:s+bl])
				cur += bl
			}
		}
		for i := 0; i < q; i++ {
			for j := 0; j <= i; j++ {
				s := srcBlock(r0+i, r0+j)
				switch {
				case i != j:
					copy(dst[cur:cur+bl], src[s:s+bl])
				case unit:
					for lane := 0; lane < vl; lane++ {
						dst[cur+lane] = 1
						if cplx {
							dst[cur+vl+lane] = 0
						}
					}
				case !recip:
					copy(dst[cur:cur+bl], src[s:s+bl])
				case !cplx:
					for lane := 0; lane < vl; lane++ {
						if v := src[s+lane]; v != 0 {
							dst[cur+lane] = 1 / v
						} else {
							dst[cur+lane] = 0
						}
					}
				default:
					for lane := 0; lane < vl; lane++ {
						re := float64(src[s+lane])
						im := float64(src[s+vl+lane])
						den := float64(re*re) + float64(im*im)
						if den != 0 {
							dst[cur+lane] = E(re / den)
							dst[cur+vl+lane] = E(-im / den)
						} else {
							dst[cur+lane] = 0
							dst[cur+vl+lane] = 0
						}
					}
				}
				cur += bl
			}
		}
		r0 += q
	}
}

// nBCopy/nBUncopy canonicalize B — the native twins of pack.BCopy/BUncopy.
func nBCopy[E vec.Float](src []E, rows, cols int, reverse, transpose bool, bl int, dst []E) {
	dr, dc := rows, cols
	if transpose {
		dr, dc = dc, dr
	}
	for j := 0; j < dc; j++ {
		for i := 0; i < dr; i++ {
			si, sj := i, j
			if transpose {
				si, sj = j, i
			}
			if reverse {
				if transpose {
					sj = cols - 1 - sj
				} else {
					si = rows - 1 - si
				}
			}
			s := (sj*rows + si) * bl
			d := (j*dr + i) * bl
			copy(dst[d:d+bl], src[s:s+bl])
		}
	}
}

func nBUncopy[E vec.Float](dst []E, rows, cols int, reverse, transpose bool, bl int, src []E) {
	dr, dc := rows, cols
	if transpose {
		dr, dc = dc, dr
	}
	for j := 0; j < dc; j++ {
		for i := 0; i < dr; i++ {
			si, sj := i, j
			if transpose {
				si, sj = j, i
			}
			if reverse {
				if transpose {
					sj = cols - 1 - sj
				} else {
					si = rows - 1 - si
				}
			}
			s := (j*dr + i) * bl
			d := (sj*rows + si) * bl
			copy(dst[d:d+bl], src[s:s+bl])
		}
	}
}

// ExecTRSMNative runs the TRSM plan with the native Go kernels,
// overwriting B with the solution.
func ExecTRSMNative[E vec.Float](pl *TRSMPlan, a, b *layout.Compact[E]) error {
	return ExecTRSMNativeParallel(pl, a, b, 1)
}

// ExecTRSMNativeParallel is ExecTRSMNative with worker-parallel groups.
// workers <= 0 means auto (GOMAXPROCS).
func ExecTRSMNativeParallel[E vec.Float](pl *TRSMPlan, a, b *layout.Compact[E], workers int) error {
	return ExecTRSMNativePrepacked(pl, a, b, nil, workers)
}

// ExecTRSMNativePrepacked is ExecTRSMNativeParallel consuming a
// prepacked triangle: preTri, when non-nil, must hold the output of
// PrepackTRSMTri for this plan (group-indexed, per PrepackTriLen), and
// the per-call triangle pack (including the reciprocal diagonal) is
// skipped. nil falls back to packing per call.
func ExecTRSMNativePrepacked[E vec.Float](pl *TRSMPlan, a, b *layout.Compact[E], preTri []E, workers int) error {
	p := pl.P
	if pl.Tun.VL != 0 && pl.Tun.VL != p.DT.Pack() {
		return fmt.Errorf("core: native execution requires the native lane count")
	}
	if a.Count != p.Count || b.Count != p.Count {
		return fmt.Errorf("core: batch count mismatch")
	}
	if a.Rows != pl.MEff || a.Cols != pl.MEff || b.Rows != p.M || b.Cols != p.N {
		return fmt.Errorf("core: shape mismatch A=%dx%d B=%dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if preTri != nil && len(preTri) < pl.PrepackTriLen(a.Groups()) {
		return fmt.Errorf("core: prepacked tri has %d elements, need %d", len(preTri), pl.PrepackTriLen(a.Groups()))
	}
	pl.RT.or().Sched.RunLabeled(pl.Labels, a.Groups(), workers, pl.GroupsPerBatch, func(lo, hi int) {
		trsmWorker(pl, a, b, preTri, lo, hi)
	})
	return nil
}

func trsmWorker[E vec.Float](pl *TRSMPlan, a, b *layout.Compact[E], preTri []E, gLo, gHi int) {
	p := pl.P
	vl := p.DT.Pack()
	bl := blockLen(p.DT, vl)
	cplx := p.DT.IsComplex()
	lenA := pl.MEff * pl.MEff * bl
	lenB := p.M * p.N * bl
	lenTri := pack.TriLen(bl, pl.Panels)
	transAEff := p.TransA == matrix.Transpose
	if p.Side == matrix.Right {
		transAEff = !transAEff
	}
	upper := p.Uplo == matrix.Upper
	effUpper := upper != transAEff

	gb := pl.GroupsPerBatch
	needTri := preTri == nil
	needScale := p.Alpha != 1
	needPack := needTri || pl.PackB || needScale

	pipelined := needPack && gHi-gLo > gb
	nBuf := 1
	if pipelined {
		nBuf = 2
	}
	rt := pl.RT.or()
	var packTri []E
	if needTri {
		bufTri := bufpool.Get[E](rt.Bufs, nBuf*gb*lenTri)
		defer bufpool.Put(rt.Bufs, bufTri)
		packTri = bufTri.Slice()
	}
	var packB []E
	lenPB := 0
	if pl.PackB {
		lenPB = pl.MEff * pl.NEff * bl
		bufB := bufpool.Get[E](rt.Bufs, nBuf*gb*lenPB)
		defer bufpool.Put(rt.Bufs, bufB)
		packB = bufB.Slice()
	}

	args := triPackArgs[E]{
		a: a, b: b, panels: pl.Panels, packTri: packTri, packB: packB,
		mEff: pl.MEff, nEff: pl.NEff,
		lenA: lenA, lenB: lenB, lenTri: lenTri, lenPB: lenPB,
		effUpper: effUpper, transAEff: transAEff,
		unit: p.Diag == matrix.Unit, recip: true,
		reverseB: pl.ReverseB, transposeB: pl.TransposeB,
		alphaRe: real(p.Alpha), alphaIm: imag(p.Alpha), scale: needScale,
		cplx: cplx, vl: vl, bl: bl, gb: gb,
	}

	var pipe *triPipe[E]
	if pipelined {
		pipe = getTriPipe[E]()
		pipe.args = args
		pipe.gLo, pipe.gHi = gLo, gHi
		pipe.free <- 0
		pipe.free <- 1
		if !submitPipe(pipe) {
			<-pipe.free
			<-pipe.free
			putTriPipe(pipe)
			pipe, pipelined = nil, false
			pipeFallbacks.Add(1)
		}
	}

	nChunks := (gHi - gLo + gb - 1) / gb
	ci := 0
	for sb := gLo; sb < gHi; sb += gb {
		end := sb + gb
		if end > gHi {
			end = gHi
		}
		slotBase := 0
		if pipelined {
			var par int
			select {
			case par = <-pipe.ready:
			default:
				pipeStalls.Add(1)
				par = <-pipe.ready
			}
			slotBase = par * gb
		} else if needPack {
			args.packChunk(sb, end, 0)
		}
		for g := sb; g < end; g++ {
			slot := slotBase + (g - sb)
			var tri []E
			if needTri {
				tri = packTri[slot*lenTri:]
			} else {
				tri = preTri[g*lenTri:]
			}
			var target []E
			if pl.PackB {
				target = packB[slot*lenPB:]
			} else {
				target = b.Data[g*lenB:]
			}
			j0 := 0
			for _, ct := range pl.ColTiles {
				colBase := j0 * pl.MEff * bl
				for _, st := range pl.steps {
					if st.r0 > 0 {
						if cplx {
							kernels.RectCplx(tri[st.rectOff:], target[colBase:],
								target[colBase+st.r0*bl:], st.q, ct, st.r0, pl.MEff, pl.MEff, vl)
						} else {
							kernels.Rect(tri[st.rectOff:], target[colBase:],
								target[colBase+st.r0*bl:], st.q, ct, st.r0, pl.MEff, pl.MEff, vl)
						}
					}
					if cplx {
						kernels.TriCplx(tri[st.triOff:], target[colBase+st.r0*bl:], st.q, ct, pl.MEff, vl)
					} else {
						kernels.Tri(tri[st.triOff:], target[colBase+st.r0*bl:], st.q, ct, pl.MEff, vl)
					}
				}
				j0 += ct
			}
		}
		if pl.PackB {
			// Write back before the parity is recycled: the pipeline
			// packer may only overwrite these slots once the solved
			// columns are back in B.
			for g := sb; g < end; g++ {
				slot := slotBase + (g - sb)
				nBUncopy(b.Data[g*lenB:(g+1)*lenB], p.M, p.N, pl.ReverseB, pl.TransposeB, bl, packB[slot*lenPB:])
			}
		}
		if pipelined && ci+2 < nChunks {
			pipe.free <- slotBase / gb
		}
		ci++
	}
	if pipelined {
		putTriPipe(pipe)
	}
}

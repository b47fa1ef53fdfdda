package kernels

import "iatf/internal/vec"

// Compact batched in-place factorizations — the LAPACK-style compact
// kernels of the Kim et al. lineage the paper builds on, and this
// library's second extension beyond the paper's GEMM/TRSM. Both operate
// on one interleave group of n×n matrices in compact storage (block
// (i,j) at (j·n+i)·vl, complex as split planes) and vectorize across the
// P lanes exactly like the level-3 kernels.
//
// Padding lanes are guarded: a zero pivot in a padding lane factors to
// zero instead of Inf, so padded groups never produce NaNs.

// LU factors each lane's matrix in place into L\U (Doolittle, unit lower
// triangle, no pivoting — the matrices small solvers feed this are
// diagonally dominant blocks). info[lane] is set to k+1 for the first
// exactly-zero pivot encountered in that lane, 0 otherwise.
func LU[E vec.Float](a []E, n, vl int, info []int) {
	for k := 0; k < n; k++ {
		pivOff := (k*n + k) * vl
		var recip vec.V[E]
		for lane := 0; lane < vl; lane++ {
			p := a[pivOff+lane]
			if p == 0 {
				if info[lane] == 0 {
					info[lane] = k + 1
				}
				recip[lane] = 0
			} else {
				recip[lane] = 1 / p
			}
		}
		// Column scale below the pivot.
		for i := k + 1; i < n; i++ {
			off := (k*n + i) * vl
			v := vec.Load(a[off:], vl)
			vec.Store(a[off:], vec.Mul(v, recip), vl)
		}
		// Trailing rank-1 update.
		for j := k + 1; j < n; j++ {
			ukj := vec.Load(a[(j*n+k)*vl:], vl)
			for i := k + 1; i < n; i++ {
				off := (j*n + i) * vl
				lik := vec.Load(a[(k*n+i)*vl:], vl)
				v := vec.Load(a[off:], vl)
				vec.Store(a[off:], vec.FMS(v, lik, ukj), vl)
			}
		}
	}
}

// LUCplx is the complex form of LU on split-plane storage.
func LUCplx[E vec.Float](a []E, n, vl int, info []int) {
	bl := 2 * vl
	for k := 0; k < n; k++ {
		pivOff := (k*n + k) * bl
		var recRe, recIm vec.V[E]
		for lane := 0; lane < vl; lane++ {
			re := float64(a[pivOff+lane])
			im := float64(a[pivOff+vl+lane])
			den := float64(re*re) + float64(im*im)
			if den == 0 {
				if info[lane] == 0 {
					info[lane] = k + 1
				}
				continue
			}
			recRe[lane] = E(re / den)
			recIm[lane] = E(-im / den)
		}
		for i := k + 1; i < n; i++ {
			off := (k*n + i) * bl
			xr := vec.Load(a[off:], vl)
			xi := vec.Load(a[off+vl:], vl)
			re := vec.Sub(vec.Mul(xr, recRe), vec.Mul(xi, recIm))
			im := vec.Add(vec.Mul(xr, recIm), vec.Mul(xi, recRe))
			vec.Store(a[off:], re, vl)
			vec.Store(a[off+vl:], im, vl)
		}
		for j := k + 1; j < n; j++ {
			ur := vec.Load(a[(j*n+k)*bl:], vl)
			ui := vec.Load(a[(j*n+k)*bl+vl:], vl)
			for i := k + 1; i < n; i++ {
				off := (j*n + i) * bl
				lr := vec.Load(a[(k*n+i)*bl:], vl)
				li := vec.Load(a[(k*n+i)*bl+vl:], vl)
				vr := vec.Load(a[off:], vl)
				vi := vec.Load(a[off+vl:], vl)
				// v -= l·u (complex)
				vr = vec.FMS(vr, lr, ur)
				vr = vec.FMA(vr, li, ui)
				vi = vec.FMS(vi, lr, ui)
				vi = vec.FMS(vi, li, ur)
				vec.Store(a[off:], vr, vl)
				vec.Store(a[off+vl:], vi, vl)
			}
		}
	}
}

// Cholesky factors each lane's symmetric positive definite matrix in
// place into its lower Cholesky factor (upper triangle left untouched).
// Real types only. info[lane] is set to k+1 at the first non-positive
// pivot, and that lane's factorization is zeroed from that column on.
func Cholesky[E vec.Float](a []E, n, vl int, info []int) {
	for k := 0; k < n; k++ {
		// d = sqrt(a_kk), guarded per lane.
		dOff := (k*n + k) * vl
		var d, recip vec.V[E]
		for lane := 0; lane < vl; lane++ {
			p := a[dOff+lane]
			if p <= 0 {
				// Non-positive pivot: not positive definite (padding
				// lanes hit this with p == 0; callers ignore their info).
				if info[lane] == 0 {
					info[lane] = k + 1
				}
				d[lane], recip[lane] = 0, 0
				continue
			}
			s := vec.Sqrt(vec.V[E]{p})
			d[lane] = s[0]
			recip[lane] = 1 / s[0]
		}
		for lane := 0; lane < vl; lane++ {
			a[dOff+lane] = d[lane]
		}
		for i := k + 1; i < n; i++ {
			off := (k*n + i) * vl
			v := vec.Load(a[off:], vl)
			vec.Store(a[off:], vec.Mul(v, recip), vl)
		}
		for j := k + 1; j < n; j++ {
			ljk := vec.Load(a[(k*n+j)*vl:], vl)
			for i := j; i < n; i++ {
				off := (j*n + i) * vl
				lik := vec.Load(a[(k*n+i)*vl:], vl)
				v := vec.Load(a[off:], vl)
				vec.Store(a[off:], vec.FMS(v, lik, ljk), vl)
			}
		}
	}
}

// absLane returns the pivot magnitude of a real or complex entry: |x| for
// real, |re|+|im| for complex (the standard cheap pivot metric).
func absLane[E vec.Float](re, im E) E {
	if re < 0 {
		re = -re
	}
	if im < 0 {
		im = -im
	}
	return re + im
}

// LUPiv factors each lane's matrix in place with partial pivoting:
// piv[k*vl+lane] records the row swapped into position k at step k.
// info[lane] is set to k+1 when no nonzero pivot exists in column k.
// cplx selects split-plane complex arithmetic.
func LUPiv[E vec.Float](a []E, n, vl int, cplx bool, piv []int32, info []int) {
	bl := vl
	if cplx {
		bl = 2 * vl
	}
	at := func(i, j, lane int) (E, E) {
		off := (j*n + i) * bl
		re := a[off+lane]
		var im E
		if cplx {
			im = a[off+vl+lane]
		}
		return re, im
	}
	swapRows := func(r1, r2, lane int) {
		if r1 == r2 {
			return
		}
		for j := 0; j < n; j++ {
			o1 := (j*n + r1) * bl
			o2 := (j*n + r2) * bl
			a[o1+lane], a[o2+lane] = a[o2+lane], a[o1+lane]
			if cplx {
				a[o1+vl+lane], a[o2+vl+lane] = a[o2+vl+lane], a[o1+vl+lane]
			}
		}
	}
	for k := 0; k < n; k++ {
		// Per-lane pivot search and row swap (lane control flow diverges,
		// so this part is scalar; the update below stays vectorized).
		for lane := 0; lane < vl; lane++ {
			best, bestMag := k, absLane(at(k, k, lane))
			for i := k + 1; i < n; i++ {
				if m := absLane(at(i, k, lane)); m > bestMag {
					best, bestMag = i, m
				}
			}
			piv[k*vl+lane] = int32(best)
			if bestMag == 0 {
				if info[lane] == 0 {
					info[lane] = k + 1
				}
				continue
			}
			swapRows(k, best, lane)
		}
		// Column scale and rank-1 update, vectorized across lanes with the
		// guarded reciprocal.
		pivOff := (k*n + k) * bl
		if !cplx {
			var recip vec.V[E]
			for lane := 0; lane < vl; lane++ {
				if p := a[pivOff+lane]; p != 0 {
					recip[lane] = 1 / p
				}
			}
			for i := k + 1; i < n; i++ {
				off := (k*n + i) * bl
				v := vec.Load(a[off:], vl)
				vec.Store(a[off:], vec.Mul(v, recip), vl)
			}
			for j := k + 1; j < n; j++ {
				ukj := vec.Load(a[(j*n+k)*bl:], vl)
				for i := k + 1; i < n; i++ {
					off := (j*n + i) * bl
					lik := vec.Load(a[(k*n+i)*bl:], vl)
					v := vec.Load(a[off:], vl)
					vec.Store(a[off:], vec.FMS(v, lik, ukj), vl)
				}
			}
			continue
		}
		var recRe, recIm vec.V[E]
		for lane := 0; lane < vl; lane++ {
			re := float64(a[pivOff+lane])
			im := float64(a[pivOff+vl+lane])
			den := float64(re*re) + float64(im*im)
			if den != 0 {
				recRe[lane] = E(re / den)
				recIm[lane] = E(-im / den)
			}
		}
		for i := k + 1; i < n; i++ {
			off := (k*n + i) * bl
			xr := vec.Load(a[off:], vl)
			xi := vec.Load(a[off+vl:], vl)
			re := vec.Sub(vec.Mul(xr, recRe), vec.Mul(xi, recIm))
			im := vec.Add(vec.Mul(xr, recIm), vec.Mul(xi, recRe))
			vec.Store(a[off:], re, vl)
			vec.Store(a[off+vl:], im, vl)
		}
		for j := k + 1; j < n; j++ {
			ur := vec.Load(a[(j*n+k)*bl:], vl)
			ui := vec.Load(a[(j*n+k)*bl+vl:], vl)
			for i := k + 1; i < n; i++ {
				off := (j*n + i) * bl
				lr := vec.Load(a[(k*n+i)*bl:], vl)
				li := vec.Load(a[(k*n+i)*bl+vl:], vl)
				vr := vec.Load(a[off:], vl)
				vi := vec.Load(a[off+vl:], vl)
				vr = vec.FMS(vr, lr, ur)
				vr = vec.FMA(vr, li, ui)
				vi = vec.FMS(vi, lr, ui)
				vi = vec.FMS(vi, li, ur)
				vec.Store(a[off:], vr, vl)
				vec.Store(a[off+vl:], vi, vl)
			}
		}
	}
}

// ApplyPivots permutes the rows of a group's right-hand sides according
// to the recorded pivots (the P in P·A = L·U, applied to B before the
// forward solve). rows is the B row count (= n of the factorization) and
// cols the number of right-hand sides.
func ApplyPivots[E vec.Float](b []E, rows, cols, vl int, cplx bool, piv []int32) {
	bl := vl
	if cplx {
		bl = 2 * vl
	}
	for k := 0; k < rows; k++ {
		for lane := 0; lane < vl; lane++ {
			r := int(piv[k*vl+lane])
			if r == k {
				continue
			}
			for j := 0; j < cols; j++ {
				o1 := (j*rows + k) * bl
				o2 := (j*rows + r) * bl
				b[o1+lane], b[o2+lane] = b[o2+lane], b[o1+lane]
				if cplx {
					b[o1+vl+lane], b[o2+vl+lane] = b[o2+vl+lane], b[o1+vl+lane]
				}
			}
		}
	}
}

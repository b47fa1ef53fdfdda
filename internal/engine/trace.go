package engine

import (
	"fmt"

	"iatf/internal/core"
	"iatf/internal/obs"
	"iatf/internal/sched"
)

// Trace-event assembly: each builder renders one dispatched call's
// command queue — the packing kernels the Pack Selector chose, the
// tile/kernel sequence of one interleave group, the Batch Counter's
// super-batch size and the worker split — mirroring the traversal order
// of the native executors in internal/core. Builders only run for traced
// calls, so they may allocate freely.

// traceBase fills the descriptor and worker-split fields shared by all
// ops: groups are pulled in super-batch-sized chunks by up to `workers`
// participants (capped by the chunk count, as sched.Run does).
func traceBase(op OpDesc, dtype, mode string, m, n, k, count, groups, gpb int, outcome obs.CacheOutcome) obs.TraceEvent {
	chunks := (groups + gpb - 1) / gpb
	workers := sched.Resolve(op.Workers)
	if workers > chunks {
		workers = chunks
	}
	return obs.TraceEvent{
		Op: op.Kind.String(), DType: dtype, Mode: mode,
		M: m, N: n, K: k, Count: count,
		CacheOutcome:   outcome.String(),
		Groups:         groups,
		GroupsPerBatch: gpb,
		Chunks:         chunks,
		Workers:        workers,
	}
}

func gemmTrace(op OpDesc, pl *core.GEMMPlan, groups int, outcome obs.CacheOutcome) obs.TraceEvent {
	p := pl.P
	ev := traceBase(op, p.DT.String(), gemmMode(op.TransA, op.TransB),
		p.M, p.N, p.K, p.Count, groups, pl.GroupsPerBatch, outcome)
	if pl.PackA {
		ev.Queue = append(ev.Queue, obs.Command{Stage: "pack", Kernel: "npackA",
			Detail: fmt.Sprintf("A row panels (N-shape), M tiles %v, K=%d", pl.MTiles, p.K)})
	} else {
		ev.Queue = append(ev.Queue, obs.Command{Stage: "pack", Kernel: "none",
			Detail: fmt.Sprintf("A read in place (§4.4): strided kernels walk compact A at stride M=%d", p.M)})
	}
	if pl.PackB {
		ev.Queue = append(ev.Queue, obs.Command{Stage: "pack", Kernel: "npackB",
			Detail: fmt.Sprintf("B column panels (Z-shape), N tiles %v, K=%d", pl.NTiles, p.K)})
	} else {
		ev.Queue = append(ev.Queue, obs.Command{Stage: "pack", Kernel: "none",
			Detail: "B read in place (§4.4): strided kernels walk compact B in either mode"})
	}
	if p.Beta != 0 && p.Beta != 1 {
		ev.Queue = append(ev.Queue, obs.Command{Stage: "scale", Kernel: "nscale",
			Detail: fmt.Sprintf("C *= beta (%v)", p.Beta)})
	}
	i0 := 0
	for _, mc := range pl.MTiles {
		j0 := 0
		for _, nc := range pl.NTiles {
			kOff := 0
			for _, kc := range pl.KChunks {
				ev.Queue = append(ev.Queue, obs.Command{Stage: "compute",
					Kernel: fmt.Sprintf("%sgemm_%dx%d", p.DT, mc, nc),
					Detail: fmt.Sprintf("C[%d:%d,%d:%d] += op(A)·op(B), k=%d:%d",
						i0, i0+mc, j0, j0+nc, kOff, kOff+kc)})
				kOff += kc
			}
			j0 += nc
		}
		i0 += mc
	}
	return ev
}

// triSteps renders the shared TRSM/TRMM panel decomposition: panel
// heights with their row offsets.
func triSteps(panels []int) []struct{ r0, q int } {
	out := make([]struct{ r0, q int }, 0, len(panels))
	r0 := 0
	for _, q := range panels {
		out = append(out, struct{ r0, q int }{r0, q})
		r0 += q
	}
	return out
}

func triPackQueue(q []obs.Command, packB, reverse, transpose, recip bool, panels []int) []obs.Command {
	diag := "true diagonal"
	if recip {
		diag = "reciprocal diagonal"
	}
	q = append(q, obs.Command{Stage: "pack", Kernel: "npackTri",
		Detail: fmt.Sprintf("packed triangle, panels %v, %s", panels, diag)})
	if packB {
		q = append(q, obs.Command{Stage: "pack", Kernel: "nBCopy",
			Detail: fmt.Sprintf("canonicalize B (reverse=%v, transpose=%v)", reverse, transpose)})
	} else {
		q = append(q, obs.Command{Stage: "pack", Kernel: "none",
			Detail: "B in place: canonical lower solve order (§4.4)"})
	}
	return q
}

func trsmTrace(op OpDesc, pl *core.TRSMPlan, groups int, outcome obs.CacheOutcome) obs.TraceEvent {
	p := pl.P
	ev := traceBase(op, p.DT.String(), p.Mode(), p.M, p.N, 0, p.Count, groups, pl.GroupsPerBatch, outcome)
	ev.Queue = triPackQueue(ev.Queue, pl.PackB, pl.ReverseB, pl.TransposeB, true, pl.Panels)
	if p.Alpha != 1 {
		ev.Queue = append(ev.Queue, obs.Command{Stage: "scale", Kernel: "nscale",
			Detail: fmt.Sprintf("B *= alpha (%v)", p.Alpha)})
	}
	steps := triSteps(pl.Panels)
	for _, ct := range pl.ColTiles {
		for _, st := range steps {
			if st.r0 > 0 {
				ev.Queue = append(ev.Queue, obs.Command{Stage: "compute",
					Kernel: fmt.Sprintf("%strsm_rect_%dx%d", p.DT, st.q, ct),
					Detail: fmt.Sprintf("panel rows %d:%d -= A[%d:,0:%d]·X, %d cols", st.r0, st.r0+st.q, st.r0, st.r0, ct)})
			}
			ev.Queue = append(ev.Queue, obs.Command{Stage: "compute",
				Kernel: fmt.Sprintf("%strsm_tri_%d", p.DT, st.q),
				Detail: fmt.Sprintf("solve %dx%d triangle, rows %d:%d, %d cols", st.q, st.q, st.r0, st.r0+st.q, ct)})
		}
	}
	if pl.PackB {
		ev.Queue = append(ev.Queue, obs.Command{Stage: "writeback", Kernel: "nBUncopy",
			Detail: "restore B from the canonical buffer"})
	}
	return ev
}

func trmmTrace(op OpDesc, pl *core.TRMMPlan, groups int, outcome obs.CacheOutcome) obs.TraceEvent {
	p := pl.P
	ev := traceBase(op, p.DT.String(), p.Mode(), p.M, p.N, 0, p.Count, groups, pl.GroupsPerBatch, outcome)
	ev.Queue = triPackQueue(ev.Queue, pl.PackB, pl.ReverseB, pl.TransposeB, false, pl.Panels)
	if p.Alpha != 1 {
		ev.Queue = append(ev.Queue, obs.Command{Stage: "scale", Kernel: "nscale",
			Detail: fmt.Sprintf("B *= alpha (%v)", p.Alpha)})
	}
	steps := triSteps(pl.Panels)
	for _, ct := range pl.ColTiles {
		// Bottom-up panel order: each panel multiplies its own rows
		// before any panel above it is touched.
		for i := len(steps) - 1; i >= 0; i-- {
			st := steps[i]
			ev.Queue = append(ev.Queue, obs.Command{Stage: "compute",
				Kernel: fmt.Sprintf("%strmm_tri_%d", p.DT, st.q),
				Detail: fmt.Sprintf("rows %d:%d *= %dx%d triangle, %d cols", st.r0, st.r0+st.q, st.q, st.q, ct)})
			if st.r0 > 0 {
				ev.Queue = append(ev.Queue, obs.Command{Stage: "compute",
					Kernel: fmt.Sprintf("%strmm_rect_%dx%d", p.DT, st.q, ct),
					Detail: fmt.Sprintf("rows %d:%d += A[%d:,0:%d]·B[0:%d], %d cols", st.r0, st.r0+st.q, st.r0, st.r0, st.r0, ct)})
			}
		}
	}
	if pl.PackB {
		ev.Queue = append(ev.Queue, obs.Command{Stage: "writeback", Kernel: "nBUncopy",
			Detail: "restore B from the canonical buffer"})
	}
	return ev
}

func syrkTrace(op OpDesc, pl *core.SYRKPlan, groups int, outcome obs.CacheOutcome) obs.TraceEvent {
	p := pl.P
	ev := traceBase(op, p.DT.String(), op.TransA.String()+op.Uplo.String(),
		p.N, p.N, p.K, p.Count, groups, pl.GroupsPerBatch, outcome)
	ev.Queue = append(ev.Queue,
		obs.Command{Stage: "pack", Kernel: "npackA",
			Detail: fmt.Sprintf("op(A) row panels (N-shape), tiles %v, K=%d", pl.Tiles, p.K)},
		obs.Command{Stage: "pack", Kernel: "npackB",
			Detail: fmt.Sprintf("op(A)ᵀ column panels (Z-shape), tiles %v, K=%d", pl.Tiles, p.K)})
	if p.Beta != 1 {
		ev.Queue = append(ev.Queue, obs.Command{Stage: "scale", Kernel: "scaleTriangle",
			Detail: fmt.Sprintf("%s triangle of C *= beta (%v)", op.Uplo, p.Beta)})
	}
	upper := op.Uplo.String() == "U"
	i0 := 0
	for ti, mc := range pl.Tiles {
		j0 := 0
		for tj, nc := range pl.Tiles {
			diag := ti == tj
			want := diag || (upper && j0 > i0) || (!upper && j0 < i0)
			if !want {
				j0 += nc
				continue
			}
			kernel := fmt.Sprintf("%sgemm_%dx%d", p.DT, mc, nc)
			detail := fmt.Sprintf("C[%d:%d,%d:%d] += op(A)·op(A)ᵀ, K=%d", i0, i0+mc, j0, j0+nc, p.K)
			if diag {
				detail = fmt.Sprintf("scratch tile %dx%d += op(A)·op(A)ᵀ, K=%d; merge %s triangle into C[%d:%d,%d:%d]",
					mc, nc, p.K, op.Uplo, i0, i0+mc, j0, j0+nc)
			}
			ev.Queue = append(ev.Queue, obs.Command{Stage: "compute", Kernel: kernel, Detail: detail})
			j0 += nc
		}
		i0 += mc
	}
	return ev
}

// Package pack implements the IATF data-packing kernels (paper §4.4).
// Under the SIMD-friendly layout a packing kernel rearranges whole element
// blocks (one vector register's worth at a time, "memcpy"-style) so the
// computing kernel's memory walk is purely sequential:
//
//   - GEMM packs A panels N-shaped (down each column of the panel) and B
//     panels Z-shaped (across each row of the panel);
//   - TRSM packs only the triangle of A, row-panel-wise, storing diagonal
//     blocks as reciprocals so the computing kernel multiplies instead of
//     dividing (ARM division latency, §4.4);
//   - upper/transposed/right-side TRSM modes are canonicalized to the
//     single lower-non-transposed kernel form by index-reversed and
//     transposed packing, which is how one computing kernel serves every
//     mode (§5.2).
//
// Every function operates on a flat arena of real components (the same
// memory the asm VM executes kernels against) and optionally records its
// block copies so the cycle model can charge packing its true cost.
package pack

import (
	"fmt"

	"iatf/internal/vec"
)

// CopyOp is one recorded block copy (element offsets into the arena).
type CopyOp struct {
	Src, Dst, Len int
}

// Recorder accumulates the memory traffic of packing for the cycle model.
type Recorder struct {
	Ops  []CopyOp
	Divs int // scalar reciprocal computations (diagonal packing)
}

func (r *Recorder) record(src, dst, n int) {
	if r != nil {
		r.Ops = append(r.Ops, CopyOp{Src: src, Dst: dst, Len: n})
	}
}

// Ctx carries the arena and element geometry shared by the packing
// kernels. E is the real component type; complex data occupies 2·VL
// elements per block ([re lanes | im lanes]).
type Ctx[E vec.Float] struct {
	Mem []E
	DT  vec.DType
	VL  int // lanes of the real component type
	Rec *Recorder
}

// BlockLen returns the element footprint of one block.
func (c *Ctx[E]) BlockLen() int {
	if c.DT.IsComplex() {
		return 2 * c.VL
	}
	return c.VL
}

func (c *Ctx[E]) copyBlock(src, dst int) {
	n := c.BlockLen()
	copy(c.Mem[dst:dst+n], c.Mem[src:src+n])
	c.Rec.record(src, dst, n)
}

// Geom describes compact-layout storage of one matrix group: block (i, j)
// lives at Off + (j·Rows + i)·BlockLen.
type Geom struct {
	Off        int // element offset of the group base in the arena
	Rows, Cols int
	BlockLen   int
}

// Block returns the element offset of block (i, j).
func (g Geom) Block(i, j int) int {
	if i < 0 || i >= g.Rows || j < 0 || j >= g.Cols {
		panic(fmt.Sprintf("pack: block (%d,%d) outside %dx%d", i, j, g.Rows, g.Cols))
	}
	return g.Off + (j*g.Rows+i)*g.BlockLen
}

// GEMMA packs one row panel of A (rows i0..i0+mc-1, all K columns)
// N-shaped: for each reduction step l, the mc blocks of column l are
// contiguous — exactly the computing kernel's A walk. trans reads the
// transposed source (TN/TT modes), which is how every mode funnels into
// one kernel. Returns the element length written.
func GEMMA[E vec.Float](c *Ctx[E], src Geom, trans bool, i0, mc, dst int) int {
	bl := c.BlockLen()
	cur := dst
	if !trans {
		// Blocks (i0..i0+mc-1, l) are contiguous in the source column:
		// one run copy per reduction step.
		k := src.Cols
		run := mc * bl
		s := src.Block(i0, 0)
		for l := 0; l < k; l++ {
			copy(c.Mem[cur:cur+run], c.Mem[s:s+run])
			c.Rec.record(s, cur, run)
			s += src.Rows * bl
			cur += run
		}
		return cur - dst
	}
	// Transposed source: block (l, i0+r) walks down column i0+r.
	k := src.Rows
	colStride := src.Rows * bl
	base := src.Block(0, i0)
	for l := 0; l < k; l++ {
		s := base + l*bl
		for r := 0; r < mc; r++ {
			copy(c.Mem[cur:cur+bl], c.Mem[s:s+bl])
			c.Rec.record(s, cur, bl)
			s += colStride
			cur += bl
		}
	}
	return cur - dst
}

// GEMMB packs one column panel of B (columns j0..j0+nc-1, all K rows)
// Z-shaped: for each reduction step l, the nc blocks of row l are
// contiguous. trans reads the transposed source (NT/TT modes).
func GEMMB[E vec.Float](c *Ctx[E], src Geom, trans bool, j0, nc, dst int) int {
	bl := c.BlockLen()
	cur := dst
	if !trans {
		// Block (l, j0+cc) strides one source column per cc.
		k := src.Rows
		colStride := src.Rows * bl
		base := src.Block(0, j0)
		for l := 0; l < k; l++ {
			s := base + l*bl
			for cc := 0; cc < nc; cc++ {
				copy(c.Mem[cur:cur+bl], c.Mem[s:s+bl])
				c.Rec.record(s, cur, bl)
				s += colStride
				cur += bl
			}
		}
		return cur - dst
	}
	// Transposed source: blocks (j0..j0+nc-1, l) are contiguous in the
	// source column: one run copy per reduction step.
	k := src.Cols
	run := nc * bl
	s := src.Block(j0, 0)
	for l := 0; l < k; l++ {
		copy(c.Mem[cur:cur+run], c.Mem[s:s+run])
		c.Rec.record(s, cur, run)
		s += src.Rows * bl
		cur += run
	}
	return cur - dst
}

// ANoPackOK reports whether the A operand can skip packing: in
// non-transposed mode with a single row panel (M ≤ mc) the native compact
// order — column-major blocks — is already the N-shaped panel order
// (§4.4's no-packing strategy for GEMM NN).
func ANoPackOK(trans bool, m, mc int) bool {
	return !trans && m <= mc
}

// recipBlock writes the element-wise reciprocal of the src block to dst
// (complex reciprocal for complex types). Used for TRSM diagonals.
func recipBlock[E vec.Float](c *Ctx[E], src, dst int) {
	vl := c.VL
	if !c.DT.IsComplex() {
		for lane := 0; lane < vl; lane++ {
			v := c.Mem[src+lane]
			if v != 0 {
				c.Mem[dst+lane] = 1 / v
			} else {
				c.Mem[dst+lane] = 0 // padding lane
			}
		}
	} else {
		for lane := 0; lane < vl; lane++ {
			re := float64(c.Mem[src+lane])
			im := float64(c.Mem[src+vl+lane])
			den := float64(re*re) + float64(im*im)
			if den != 0 {
				c.Mem[dst+lane] = E(re / den)
				c.Mem[dst+vl+lane] = E(-im / den)
			} else {
				c.Mem[dst+lane] = 0
				c.Mem[dst+vl+lane] = 0
			}
		}
	}
	c.Rec.record(src, dst, c.BlockLen())
	if c.Rec != nil {
		c.Rec.Divs += vl
	}
}

// onesBlock writes a unit block (1 + 0i on every lane) for Unit-diagonal
// packing.
func onesBlock[E vec.Float](c *Ctx[E], dst int) {
	vl := c.VL
	for lane := 0; lane < vl; lane++ {
		c.Mem[dst+lane] = 1
		if c.DT.IsComplex() {
			c.Mem[dst+vl+lane] = 0
		}
	}
	c.Rec.record(dst, dst, c.BlockLen())
}

// TriMap canonicalizes a Left-side triangular read: the solver always runs
// the lower-non-transposed forward substitution, so upper triangles are
// index-reversed and transposed reads swap indices. Lower+Trans is an
// upper system, hence also reversed.
type TriMap struct {
	M       int
	Reverse bool // upper-effective triangle: ρ(i) = M-1-i
	Swap    bool // transposed source: read (j, i)
	Unit    bool
	// Recip stores diagonal blocks as reciprocals (the TRSM packing);
	// clear it for multiplying routines (TRMM) that need true values.
	Recip bool
}

// NewTriMap builds the canonical mapping for a mode. upper/trans are the
// BLAS flags of the stored matrix A.
func NewTriMap(m int, upper, trans, unit bool) TriMap {
	effUpper := upper != trans // transposing flips the triangle
	return TriMap{M: m, Reverse: effUpper, Swap: trans, Unit: unit, Recip: true}
}

// Src returns the source block coordinates of canonical lower element
// (i, j), j ≤ i.
func (t TriMap) Src(i, j int) (si, sj int) {
	if t.Reverse {
		i, j = t.M-1-i, t.M-1-j
	}
	if t.Swap {
		i, j = j, i
	}
	return i, j
}

// Tri packs the triangle of A for the blocked solver: for each row panel
// (heights from panels, summing to M) it emits the rectangular part — the
// panel's rows against all previously solved rows, column-major by blocks,
// K = r0 — followed by the panel's own triangle row-wise with reciprocal
// diagonal blocks. This is the N-shaped order of §4.4: when panel p is
// consumed, everything it references has already been packed (and solved).
// Returns the element length written.
func Tri[E vec.Float](c *Ctx[E], src Geom, tm TriMap, panels []int, dst int) int {
	cur := dst
	r0 := 0
	for _, q := range panels {
		// Rectangular part: q × r0 blocks, column-major.
		for l := 0; l < r0; l++ {
			for r := 0; r < q; r++ {
				si, sj := tm.Src(r0+r, l)
				c.copyBlock(src.Block(si, sj), cur)
				cur += c.BlockLen()
			}
		}
		// Triangular part: row-wise, diagonal as reciprocal.
		for i := 0; i < q; i++ {
			for j := 0; j <= i; j++ {
				si, sj := tm.Src(r0+i, r0+j)
				switch {
				case i == j && tm.Unit:
					onesBlock(c, cur)
				case i == j && tm.Recip:
					recipBlock(c, src.Block(si, sj), cur)
				default:
					c.copyBlock(src.Block(si, sj), cur)
				}
				cur += c.BlockLen()
			}
		}
		r0 += q
	}
	return cur - dst
}

// TriLen returns the element length Tri writes for the given panels.
func TriLen(blockLen int, panels []int) int {
	n, r0 := 0, 0
	for _, q := range panels {
		n += q*r0 + q*(q+1)/2
		r0 += q
	}
	return n * blockLen
}

// BCopy packs B into a buffer, optionally reversing row order (upper-mode
// canonicalization) and/or transposing (right-side reduction). The
// destination is a dense rows'×cols' compact group (rows' = cols when
// transposing). Returns the element length written.
func BCopy[E vec.Float](c *Ctx[E], src Geom, reverse, transpose bool, dst int) int {
	bl := c.BlockLen()
	dr, dc := src.Rows, src.Cols
	if transpose {
		dr, dc = dc, dr
	}
	for j := 0; j < dc; j++ {
		for i := 0; i < dr; i++ {
			si, sj := srcCoord(src, i, j, reverse, transpose)
			c.copyBlock(src.Block(si, sj), dst+(j*dr+i)*bl)
		}
	}
	return dr * dc * bl
}

// srcCoord maps canonical buffer coordinates (i, j) to source block
// coordinates. Reversal applies to the canonical row index — which is the
// source column when transposing.
func srcCoord(src Geom, i, j int, reverse, transpose bool) (si, sj int) {
	si, sj = i, j
	if transpose {
		si, sj = j, i
	}
	if reverse {
		if transpose {
			sj = src.Cols - 1 - sj
		} else {
			si = src.Rows - 1 - si
		}
	}
	return si, sj
}

// BUncopy writes a packed/solved B buffer back into its source group,
// inverting BCopy's permutation.
func BUncopy[E vec.Float](c *Ctx[E], dstGeom Geom, reverse, transpose bool, srcBuf int) {
	bl := c.BlockLen()
	dr, dc := dstGeom.Rows, dstGeom.Cols
	if transpose {
		dr, dc = dc, dr
	}
	for j := 0; j < dc; j++ {
		for i := 0; i < dr; i++ {
			si, sj := srcCoord(dstGeom, i, j, reverse, transpose)
			c.copyBlock(srcBuf+(j*dr+i)*bl, dstGeom.Block(si, sj))
		}
	}
}

// Scale multiplies every element of a dense group region by a scalar
// (alpha pre-scaling for TRSM, beta scaling for GEMM). Complex scaling
// uses the split planes.
func Scale[E vec.Float](c *Ctx[E], g Geom, re, im float64) {
	bl := c.BlockLen()
	vl := c.VL
	for j := 0; j < g.Cols; j++ {
		for i := 0; i < g.Rows; i++ {
			off := g.Block(i, j)
			if !c.DT.IsComplex() {
				for lane := 0; lane < vl; lane++ {
					c.Mem[off+lane] = E(float64(c.Mem[off+lane]) * re)
				}
			} else {
				for lane := 0; lane < vl; lane++ {
					r := float64(c.Mem[off+lane])
					m := float64(c.Mem[off+vl+lane])
					c.Mem[off+lane] = E(float64(r*re) - float64(m*im))
					c.Mem[off+vl+lane] = E(float64(r*im) + float64(m*re))
				}
			}
			c.Rec.record(off, off, bl)
		}
	}
}

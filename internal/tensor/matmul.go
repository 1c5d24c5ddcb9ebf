package tensor

import "fmt"

// gemmParallelThreshold is the minimum number of result rows before MatMul
// fans work out to the worker pool; below it the dispatch overhead
// dominates.
const gemmParallelThreshold = 16

// Cache-blocking parameters for the GEMM kernels. Each kc×nc panel of B
// is packed transposed (column-major) into a scratch buffer so the
// micro-kernel reduces to contiguous dot products held in registers — a
// 4×2 tile of C accumulated over the packed panel with no loads or
// stores of C inside the k loop. The hot working set per tile is
//
//	packed B panel: kc·nc·8  = 128·512·8 ≈ 512 KiB  (L2-resident)
//	A block:         4·kc·8  =   4·128·8 ≈   4 KiB  (L1-resident)
//
// Accumulation order is fixed by (m, k, n) alone — per-element partial
// sums are added to C in ascending kc-panel order — so results are
// deterministic across runs and identical for every executor style,
// though not bit-equal to a naive single-chain kernel. On amd64 hosts
// with AVX2+FMA the tile reduction additionally runs in 256-bit
// fused-multiply-add lanes (gemm_tile_amd64.s) with a fixed reduction
// order: still deterministic on a given host, but rounded differently
// than the portable scalar tile used elsewhere.
const (
	gemmBlockK = 128 // kc: rows of the B panel packed per tile
	gemmBlockN = 512 // nc: columns of the B panel packed per tile
)

// MatMul computes C = A·B for 2-D tensors A (m×k) and B (k×n), writing the
// m×n result into dst (which must be pre-shaped m×n). Work is spread over
// the persistent worker pool in row blocks.
func MatMul(dst, a, b *Tensor) error {
	if len(a.shape) != 2 || len(b.shape) != 2 || len(dst.shape) != 2 {
		return fmt.Errorf("%w: matmul needs 2-D operands, got %v·%v->%v", ErrShape, a.shape, b.shape, dst.shape)
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 || dst.shape[0] != m || dst.shape[1] != n {
		return fmt.Errorf("%w: matmul %v·%v->%v", ErrShape, a.shape, b.shape, dst.shape)
	}
	Gemm(dst.data, a.data, b.data, m, k, n, false)
	return nil
}

// MatMulAdd computes C += A·B, accumulating into dst instead of
// overwriting it.
func MatMulAdd(dst, a, b *Tensor) error {
	if len(a.shape) != 2 || len(b.shape) != 2 || len(dst.shape) != 2 {
		return fmt.Errorf("%w: matmuladd needs 2-D operands", ErrShape)
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 || dst.shape[0] != m || dst.shape[1] != n {
		return fmt.Errorf("%w: matmuladd %v·%v->%v", ErrShape, a.shape, b.shape, dst.shape)
	}
	Gemm(dst.data, a.data, b.data, m, k, n, true)
	return nil
}

// MatMulTransA computes C = Aᵀ·B where A is k×m, B is k×n and dst is m×n.
func MatMulTransA(dst, a, b *Tensor) error {
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 || dst.shape[0] != m || dst.shape[1] != n {
		return fmt.Errorf("%w: matmul Aᵀ %v·%v->%v", ErrShape, a.shape, b.shape, dst.shape)
	}
	GemmTransA(dst.data, a.data, b.data, m, k, n)
	return nil
}

// MatMulTransB computes C = A·Bᵀ where A is m×k, B is n×k and dst is m×n.
func MatMulTransB(dst, a, b *Tensor) error {
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 || dst.shape[0] != m || dst.shape[1] != n {
		return fmt.Errorf("%w: matmul Bᵀ %v·%v->%v", ErrShape, a.shape, b.shape, dst.shape)
	}
	GemmTransB(dst.data, a.data, b.data, m, k, n, false, nil)
	return nil
}

// Gemm computes C (+)= A·B over row-major flat slices: A is m×k, B is
// k×n, C is m×n. Exposing the slice form lets hot loops (per-sample
// convolution lowering) call the kernel without wrapping slices in
// Tensor headers.
func Gemm(c, a, b []float64, m, k, n int, accumulate bool) {
	GemmEpilogue(c, a, b, m, k, n, accumulate, nil)
}

// GemmEpilogue is Gemm with a per-row-block epilogue hook: after the
// kernel finishes a block of destination rows [lo, hi) it calls
// epi(lo, hi) while those rows are still cache-hot, so fused ops (bias
// add, ReLU) avoid a second full pass over the output. epi may be nil. It
// runs exactly once per row, on the worker that produced the rows, right
// after they are complete — possibly concurrently on disjoint ranges.
func GemmEpilogue(c, a, b []float64, m, k, n int, accumulate bool, epi func(lo, hi int)) {
	parallelRows(m, func(lo, hi int) {
		gemmBlocked(c, a, b, lo, hi, k, n, accumulate)
		if epi != nil {
			epi(lo, hi)
		}
	})
}

// gemmBlocked is the cache-blocked inner kernel for destination rows
// [lo, hi). Loop order: nc panel → kc panel → pack → register tile.
//
// Each kc×nc panel of B is first packed transposed into arena scratch
// (panel column j becomes a contiguous run of kcur values), turning the
// inner product into the same contiguous-dot-product shape GemmTransB
// uses: a 4×2 tile of C lives in eight registers across the whole packed
// panel, with six loads and sixteen flops per k step and no C traffic
// inside the loop. The all-zero A skip (masked SpatialConvolutionMap
// weights zero whole kernel-sized runs of k) is kept from the old kernel.
func gemmBlocked(c, a, b []float64, lo, hi, k, n int, accumulate bool) {
	// Shapes that cannot amortize the panel pack — fewer destination rows
	// than one register tile, or a reduction shorter than a couple of
	// vector strides (per-sample module dispatch, k=1 outer products in
	// Dense backward) — run the direct streaming kernel instead.
	if hi-lo < 4 || k < 16 {
		gemmSimple(c, a, b, lo, hi, k, n, accumulate)
		return
	}
	if !accumulate {
		for i := lo; i < hi; i++ {
			row := c[i*n : i*n+n]
			for j := range row {
				row[j] = 0
			}
		}
	}
	scratch := GetUninit(min(gemmBlockK, k), min(gemmBlockN, n))
	defer Put(scratch)
	pk := scratch.Data()
	for jc := 0; jc < n; jc += gemmBlockN {
		jend := min(jc+gemmBlockN, n)
		ncols := jend - jc
		for pc := 0; pc < k; pc += gemmBlockK {
			pend := min(pc+gemmBlockK, k)
			kcur := pend - pc
			// Pack the kc×nc panel transposed: pk[j][p] = b[pc+p][jc+j].
			// Reads are contiguous along B rows; each row scatters into
			// the packed columns.
			for p := 0; p < kcur; p++ {
				brow := b[(pc+p)*n+jc : (pc+p)*n+jend]
				for j, v := range brow {
					pk[j*kcur+p] = v
				}
			}
			i := lo
			for ; i+4 <= hi; i += 4 {
				a0 := a[i*k+pc : i*k+pend]
				a1 := a[(i+1)*k+pc : (i+1)*k+pend]
				a2 := a[(i+2)*k+pc : (i+2)*k+pend]
				a3 := a[(i+3)*k+pc : (i+3)*k+pend]
				c0 := c[i*n : i*n+n]
				c1 := c[(i+1)*n : (i+1)*n+n]
				c2 := c[(i+2)*n : (i+2)*n+n]
				c3 := c[(i+3)*n : (i+3)*n+n]
				j := 0
				for ; j+2 <= ncols; j += 2 {
					b0 := pk[j*kcur : j*kcur+kcur]
					b1 := pk[(j+1)*kcur : (j+1)*kcur+kcur]
					var acc [8]float64
					dotTile(a0, a1, a2, a3, b0, b1, &acc)
					c0[jc+j] += acc[0]
					c0[jc+j+1] += acc[1]
					c1[jc+j] += acc[2]
					c1[jc+j+1] += acc[3]
					c2[jc+j] += acc[4]
					c2[jc+j+1] += acc[5]
					c3[jc+j] += acc[6]
					c3[jc+j+1] += acc[7]
				}
				for ; j < ncols; j++ {
					b0 := pk[j*kcur : j*kcur+kcur]
					var s0, s1, s2, s3 float64
					for p, bv := range b0 {
						s0 += a0[p] * bv
						s1 += a1[p] * bv
						s2 += a2[p] * bv
						s3 += a3[p] * bv
					}
					c0[jc+j] += s0
					c1[jc+j] += s1
					c2[jc+j] += s2
					c3[jc+j] += s3
				}
			}
			for ; i < hi; i++ {
				arow := a[i*k+pc : i*k+pend]
				crow := c[i*n : i*n+n]
				j := 0
				for ; j+4 <= ncols; j += 4 {
					b0 := pk[j*kcur : j*kcur+kcur]
					b1 := pk[(j+1)*kcur : (j+1)*kcur+kcur]
					b2 := pk[(j+2)*kcur : (j+2)*kcur+kcur]
					b3 := pk[(j+3)*kcur : (j+3)*kcur+kcur]
					var s0, s1, s2, s3 float64
					for p, av := range arow {
						if av == 0 {
							continue
						}
						s0 += av * b0[p]
						s1 += av * b1[p]
						s2 += av * b2[p]
						s3 += av * b3[p]
					}
					crow[jc+j] += s0
					crow[jc+j+1] += s1
					crow[jc+j+2] += s2
					crow[jc+j+3] += s3
				}
				for ; j < ncols; j++ {
					b0 := pk[j*kcur : j*kcur+kcur]
					s := 0.0
					for p, bv := range b0 {
						s += arow[p] * bv
					}
					crow[jc+j] += s
				}
			}
		}
	}
}

// gemmSimple is the unblocked ikj kernel: each A element scales a
// contiguous B row into the C row (axpy). No scratch, no packing — the
// right shape for tiny m or tiny k where the blocked kernel's panel setup
// costs more than the flops it accelerates.
func gemmSimple(c, a, b []float64, lo, hi, k, n int, accumulate bool) {
	for i := lo; i < hi; i++ {
		crow := c[i*n : i*n+n]
		if !accumulate {
			for j := range crow {
				crow[j] = 0
			}
		}
		arow := a[i*k : i*k+k]
		for p, av := range arow {
			if av == 0 {
				continue
			}
			brow := b[p*n : p*n+n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// GemmTransA computes C = Aᵀ·B over flat slices where A is k×m, B is k×n
// and C is m×n: dst[i][j] = Σ_p a[p][i]·b[p][j].
//
// Rather than walking A's columns with stride-m loads, the kernel
// transposes A once into arena scratch (k·m elements — for the layers
// that call this, k is a reduced dimension like OutC or the batch size,
// so the copy is a fraction of the 2·m·k·n flops it unlocks) and runs
// the packed blocked kernel on the contiguous result.
func GemmTransA(c, a, b []float64, m, k, n int) {
	if m <= 0 || n <= 0 {
		return
	}
	at := GetUninit(m, k)
	atd := at.Data()
	for p := 0; p < k; p++ {
		row := a[p*m : p*m+m]
		for i, v := range row {
			atd[i*k+p] = v
		}
	}
	Gemm(c, atd, b, m, k, n, false)
	Put(at)
}

// GemmTransB computes C (+)= A·Bᵀ over flat slices where A is m×k, B is
// n×k and C is m×n. Both operands are traversed along contiguous k-rows,
// so instead of cache panels the kernel uses the shared 4×2 dot-product
// tile (AVX2+FMA on capable amd64 hosts): four A rows against two B rows,
// eight accumulators living in registers across the whole k extent. epi,
// when non-nil, runs per completed row block while C is cache-hot.
func GemmTransB(c, a, b []float64, m, k, n int, accumulate bool, epi func(lo, hi int)) {
	parallelRows(m, func(lo, hi int) {
		i := lo
		for ; i+4 <= hi; i += 4 {
			a0 := a[i*k : i*k+k]
			a1 := a[(i+1)*k : (i+1)*k+k]
			a2 := a[(i+2)*k : (i+2)*k+k]
			a3 := a[(i+3)*k : (i+3)*k+k]
			d0 := c[i*n : i*n+n]
			d1 := c[(i+1)*n : (i+1)*n+n]
			d2 := c[(i+2)*n : (i+2)*n+n]
			d3 := c[(i+3)*n : (i+3)*n+n]
			j := 0
			for ; j+2 <= n; j += 2 {
				b0 := b[j*k : j*k+k]
				b1 := b[(j+1)*k : (j+1)*k+k]
				var acc [8]float64
				dotTile(a0, a1, a2, a3, b0, b1, &acc)
				if accumulate {
					d0[j] += acc[0]
					d0[j+1] += acc[1]
					d1[j] += acc[2]
					d1[j+1] += acc[3]
					d2[j] += acc[4]
					d2[j+1] += acc[5]
					d3[j] += acc[6]
					d3[j+1] += acc[7]
				} else {
					d0[j], d0[j+1] = acc[0], acc[1]
					d1[j], d1[j+1] = acc[2], acc[3]
					d2[j], d2[j+1] = acc[4], acc[5]
					d3[j], d3[j+1] = acc[6], acc[7]
				}
			}
			for ; j < n; j++ {
				brow := b[j*k : j*k+k]
				var s0, s1, s2, s3 float64
				for p, bv := range brow {
					s0 += a0[p] * bv
					s1 += a1[p] * bv
					s2 += a2[p] * bv
					s3 += a3[p] * bv
				}
				if accumulate {
					d0[j] += s0
					d1[j] += s1
					d2[j] += s2
					d3[j] += s3
				} else {
					d0[j], d1[j], d2[j], d3[j] = s0, s1, s2, s3
				}
			}
		}
		for ; i < hi; i++ {
			arow := a[i*k : i*k+k]
			drow := c[i*n : i*n+n]
			j := 0
			for ; j+4 <= n; j += 4 {
				b0 := b[j*k : j*k+k]
				b1 := b[(j+1)*k : (j+1)*k+k]
				b2 := b[(j+2)*k : (j+2)*k+k]
				b3 := b[(j+3)*k : (j+3)*k+k]
				var s0, s1, s2, s3 float64
				for p, av := range arow {
					s0 += av * b0[p]
					s1 += av * b1[p]
					s2 += av * b2[p]
					s3 += av * b3[p]
				}
				if accumulate {
					drow[j] += s0
					drow[j+1] += s1
					drow[j+2] += s2
					drow[j+3] += s3
				} else {
					drow[j], drow[j+1], drow[j+2], drow[j+3] = s0, s1, s2, s3
				}
			}
			for ; j < n; j++ {
				brow := b[j*k : j*k+k]
				s := 0.0
				for p, av := range arow {
					s += av * brow[p]
				}
				if accumulate {
					drow[j] += s
				} else {
					drow[j] = s
				}
			}
		}
		if epi != nil {
			epi(lo, hi)
		}
	})
}

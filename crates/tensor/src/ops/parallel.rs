//! Parallel kernel implementations backing [`crate::backend::Parallel`].
//!
//! Design rules, in priority order:
//!
//! Kernels run on the persistent worker pool in [`crate::par`]; the design
//! rules below are unchanged from the scoped-thread era because the pool
//! preserves the same chunking and fold order.
//!
//! 1. **Determinism.** Work is split into contiguous chunks in index order
//!    and cross-chunk reductions fold partials in chunk order, so a fixed
//!    thread count always produces the same bits. Most kernels here are
//!    additionally *bit-identical* to the naive reference because each output
//!    element's accumulation order is preserved (row-parallel matmul,
//!    output-tile conv forward, per-channel reductions). The exceptions,
//!    which agree with naive only to rounding: conv-backward's weight/bias
//!    accumulators (fold per-chunk partials) and the direct 3×3 forward's
//!    4-channel blocks on AVX2+FMA hosts (same accumulation order, but
//!    fused multiply-add rounds once per tap instead of twice). Vector
//!    kernels keep the bits by keeping the scalar arithmetic lane by lane:
//!    `vmulps` then `vaddps` per term in the reference order (never FMA),
//!    and `max` chains in the reference call order (never a pairwise tree).
//! 2. **Cache and register blocking.** Matmul kernels block over `k` so
//!    panels of `b` stay resident while a chunk of output rows is computed;
//!    the fused convolution engine (see `ops::conv`) unfolds im2col
//!    *panels* into the thread-local arena ([`crate::arena`]) instead of
//!    materializing the whole patch matrix, consumes weights packed once
//!    per weight-update epoch ([`PackedConv2dWeight`]), and
//!    shape-dispatches 1×1 and 3×3/s1/p1 geometries to unfold-free kernels.
//!    The 1×1 forward keeps each output tile in registers across all of `k`
//!    and applies its epilogue before the only store, so an output is
//!    written once and never re-read (inputs up to [`MAX_TILE_INPUT`]
//!    elements per sample; larger ones stream through the row GEMM).
//! 3. **Zero steady-state allocation.** Every transient buffer — im2col
//!    panels, operand transposes, per-chunk gradient partials — is arena
//!    scratch; after one warm-up call the hot path performs no heap
//!    allocations beyond the returned tensors.
//! 4. **Dispatch amortization.** Enqueueing pool tasks and waking workers
//!    costs microseconds, so every kernel computes a per-chunk work floor
//!    and falls back to fewer chunks (or one inline chunk) when the tensor
//!    is too small.

use crate::arena;
use crate::ops::channel::{check_channel_vec, check_nchw};
use crate::ops::conv::{
    check_conv_shapes, check_depthwise_shapes, col2im_panel, conv_output_size, im2col_panel,
    pack_panels_into, pack_transposed_into, packed_panel_len, Conv2dGrads, Epilogue, PackView,
    PackedConv2dWeight, PACK_MR,
};
use crate::ops::elementwise::check_bias_rows;
use crate::ops::matmul::check_rank2;
use crate::ops::pool::MaxPoolIndices;
use crate::par;
use crate::{Result, Tensor, TensorError};

/// Minimum flops a matmul must present before threads are spawned.
const MIN_PAR_FLOPS: usize = 1 << 20;

/// Minimum elements for parallel elementwise/unary traversals.
const MIN_PAR_ELEMS: usize = 1 << 16;

/// Minimum input elements before the row-pair 2×2 max-pool splits across
/// the pool. The kernel streams about 30 GB/s of input on one core, so
/// waking a worker pays off only on inputs past L2. Measured on a 2-vCPU
/// Xeon at two threads (medians of 3000 calls): inline wins up to 2^18
/// elements (32 µs against 64–79 µs for two chunks) and ties at 393,216
/// (54–57 µs against 58–67 µs); at 2^19 two chunks win (70–74 µs against
/// 94–104 µs).
const MIN_PAR_POOL2_ELEMS: usize = 1 << 19;

/// Per-chunk element floor for elementwise traversals.
const CHUNK_ELEMS: usize = 1 << 15;

fn row_chunk(m: usize, work_per_row: usize) -> usize {
    let min_rows = MIN_PAR_FLOPS
        .div_ceil(work_per_row.max(1))
        .clamp(1, m.max(1));
    m.div_ceil(par::max_threads()).max(min_rows)
}

fn elem_chunk(len: usize) -> usize {
    len.div_ceil(par::max_threads()).max(CHUNK_ELEMS)
}

// ---------------------------------------------------------------------------
// Runtime SIMD dispatch.
//
// rustc's default x86-64 target only emits SSE2, which caps every f32
// kernel at 4 lanes; the build hosts (and any production x86 deployment
// this decade) have AVX2. The hot kernels therefore come in two codegen
// flavours sharing one `#[inline(always)]` body: the baseline symbol and an
// `#[target_feature(enable = "avx2")]` clone whose body re-vectorizes at 8
// lanes. Dispatch is a memoized CPUID check per kernel call — nanoseconds
// against kernels that run micro- to milliseconds. Numerics are identical:
// wider lanes change neither the per-element accumulation order nor
// contraction (Rust keeps `ffp-contract=off`), so AVX2 results are
// bit-identical to the baseline's.
// ---------------------------------------------------------------------------

/// True when the running CPU supports AVX2 (always false off x86-64).
#[inline]
fn have_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        // is_x86_feature_detected! memoizes in a process-wide atomic.
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Expands to a baseline + AVX2 pair of wrappers around an
/// `#[inline(always)]` kernel body, plus the dispatching entry point.
macro_rules! simd_dispatch {
    (fn $name:ident / $avx2:ident / $body:ident
     <$($gen:ident : $bound:path),*> ($($arg:ident : $ty:ty),* $(,)?)) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        fn $avx2<$($gen: $bound),*>($($arg: $ty),*) {
            $body($($arg),*)
        }

        #[inline]
        fn $name<$($gen: $bound),*>($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            if have_avx2() {
                // SAFETY: the AVX2 clone is only reached after
                // `is_x86_feature_detected!("avx2")` confirmed the CPU
                // supports every instruction it may contain.
                #[allow(unsafe_code)]
                return unsafe { $avx2($($arg),*) };
            }
            $body($($arg),*)
        }
    };
}

// ---------------------------------------------------------------------------
// Blocked row kernels over raw slices (shared by matmul and conv).
// ---------------------------------------------------------------------------

/// `k`-panel depth: the `KB x n` slice of `b` walked during one row-block
/// sweep stays cache-resident.
const KB: usize = 64;

/// Accumulates four consecutive `k`-steps into `o_row` with one load/store
/// of each output element. The adds stay in naive order
/// (`(((o + a0*b0) + a1*b1) + a2*b2) + a3*b3`), so the result is
/// bit-identical to four sequential scalar passes while the output element
/// stays in a register.
#[inline(always)]
fn axpy4(o_row: &mut [f32], a: [f32; 4], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) {
    let n = o_row.len();
    let (b0, b1, b2, b3) = (&b0[..n], &b1[..n], &b2[..n], &b3[..n]);
    for j in 0..n {
        o_row[j] = (((o_row[j] + a[0] * b0[j]) + a[1] * b1[j]) + a[2] * b2[j]) + a[3] * b3[j];
    }
}

#[inline(always)]
fn axpy1(o_row: &mut [f32], a: f32, b_row: &[f32]) {
    for (o, &b) in o_row.iter_mut().zip(b_row) {
        *o += a * b;
    }
}

/// Four-row / four-`k` register-blocked update: each loaded `b` panel value
/// feeds four output rows, and each output element takes its four adds in
/// naive `k`-order (bit-identical to the scalar reference).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn axpy4x4(
    o0: &mut [f32],
    o1: &mut [f32],
    o2: &mut [f32],
    o3: &mut [f32],
    a: &[[f32; 4]; 4],
    b0: &[f32],
    b1: &[f32],
    b2: &[f32],
    b3: &[f32],
) {
    let n = o0.len();
    let (b0, b1, b2, b3) = (&b0[..n], &b1[..n], &b2[..n], &b3[..n]);
    let (o1, o2, o3) = (&mut o1[..n], &mut o2[..n], &mut o3[..n]);
    for j in 0..n {
        let (x0, x1, x2, x3) = (b0[j], b1[j], b2[j], b3[j]);
        o0[j] = (((o0[j] + a[0][0] * x0) + a[0][1] * x1) + a[0][2] * x2) + a[0][3] * x3;
        o1[j] = (((o1[j] + a[1][0] * x0) + a[1][1] * x1) + a[1][2] * x2) + a[1][3] * x3;
        o2[j] = (((o2[j] + a[2][0] * x0) + a[2][1] * x1) + a[2][2] * x2) + a[2][3] * x3;
        o3[j] = (((o3[j] + a[3][0] * x0) + a[3][1] * x1) + a[3][2] * x2) + a[3][3] * x3;
    }
}

/// `out[row0..row0+rows] += a[row0..] @ b` with `a: [m, k]`, `b: [k, n]`.
/// `out_rows` is the chunk's slice, `rows * n` long. `a_at(i, kk)` abstracts
/// the `a` element layout so the plain and transposed-`a` kernels share one
/// register-blocked body. Codegens twice (baseline + AVX2); call through
/// [`kernel_rows_with`].
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn kernel_rows_with_body<F: Fn(usize, usize) -> f32>(
    a_at: F,
    bv: &[f32],
    out_rows: &mut [f32],
    row0: usize,
    rows: usize,
    k: usize,
    n: usize,
) {
    for kb in (0..k).step_by(KB) {
        let kend = (kb + KB).min(k);
        let mut i = 0;
        // 8-row blocks: two 4-row tiles share each streamed b panel pass.
        while i + 8 <= rows {
            let (top, bottom) = out_rows[i * n..].split_at_mut(4 * n);
            let (r0, rest) = top.split_at_mut(n);
            let (r1, rest) = rest.split_at_mut(n);
            let (r2, r3) = rest.split_at_mut(n);
            let (r4, rest) = bottom.split_at_mut(n);
            let (r5, rest) = rest.split_at_mut(n);
            let (r6, rest) = rest.split_at_mut(n);
            let r7 = &mut rest[..n];
            let mut kk = kb;
            while kk + 4 <= kend {
                let mut a_hi = [[0.0f32; 4]; 4];
                let mut a_lo = [[0.0f32; 4]; 4];
                for r in 0..4 {
                    for u in 0..4 {
                        a_hi[r][u] = a_at(row0 + i + r, kk + u);
                        a_lo[r][u] = a_at(row0 + i + 4 + r, kk + u);
                    }
                }
                let b0 = &bv[kk * n..(kk + 1) * n];
                let b1 = &bv[(kk + 1) * n..(kk + 2) * n];
                let b2 = &bv[(kk + 2) * n..(kk + 3) * n];
                let b3 = &bv[(kk + 3) * n..(kk + 4) * n];
                axpy4x4(r0, r1, r2, r3, &a_hi, b0, b1, b2, b3);
                axpy4x4(r4, r5, r6, r7, &a_lo, b0, b1, b2, b3);
                kk += 4;
            }
            while kk < kend {
                let b_row = &bv[kk * n..(kk + 1) * n];
                axpy1(r0, a_at(row0 + i, kk), b_row);
                axpy1(r1, a_at(row0 + i + 1, kk), b_row);
                axpy1(r2, a_at(row0 + i + 2, kk), b_row);
                axpy1(r3, a_at(row0 + i + 3, kk), b_row);
                axpy1(r4, a_at(row0 + i + 4, kk), b_row);
                axpy1(r5, a_at(row0 + i + 5, kk), b_row);
                axpy1(r6, a_at(row0 + i + 6, kk), b_row);
                axpy1(r7, a_at(row0 + i + 7, kk), b_row);
                kk += 1;
            }
            i += 8;
        }
        // 4-row blocks: split the chunk into four disjoint row slices.
        while i + 4 <= rows {
            let (r0, rest) = out_rows[i * n..].split_at_mut(n);
            let (r1, rest) = rest.split_at_mut(n);
            let (r2, rest) = rest.split_at_mut(n);
            let r3 = &mut rest[..n];
            let mut kk = kb;
            while kk + 4 <= kend {
                let mut a = [[0.0f32; 4]; 4];
                for (r, a_row) in a.iter_mut().enumerate() {
                    for (u, a_val) in a_row.iter_mut().enumerate() {
                        *a_val = a_at(row0 + i + r, kk + u);
                    }
                }
                axpy4x4(
                    r0,
                    r1,
                    r2,
                    r3,
                    &a,
                    &bv[kk * n..(kk + 1) * n],
                    &bv[(kk + 1) * n..(kk + 2) * n],
                    &bv[(kk + 2) * n..(kk + 3) * n],
                    &bv[(kk + 3) * n..(kk + 4) * n],
                );
                kk += 4;
            }
            while kk < kend {
                let b_row = &bv[kk * n..(kk + 1) * n];
                axpy1(r0, a_at(row0 + i, kk), b_row);
                axpy1(r1, a_at(row0 + i + 1, kk), b_row);
                axpy1(r2, a_at(row0 + i + 2, kk), b_row);
                axpy1(r3, a_at(row0 + i + 3, kk), b_row);
                kk += 1;
            }
            i += 4;
        }
        // Remainder rows: 4-way k unroll, one row at a time.
        while i < rows {
            let o_row = &mut out_rows[i * n..(i + 1) * n];
            let mut kk = kb;
            while kk + 4 <= kend {
                axpy4(
                    o_row,
                    [
                        a_at(row0 + i, kk),
                        a_at(row0 + i, kk + 1),
                        a_at(row0 + i, kk + 2),
                        a_at(row0 + i, kk + 3),
                    ],
                    &bv[kk * n..(kk + 1) * n],
                    &bv[(kk + 1) * n..(kk + 2) * n],
                    &bv[(kk + 2) * n..(kk + 3) * n],
                    &bv[(kk + 3) * n..(kk + 4) * n],
                );
                kk += 4;
            }
            while kk < kend {
                axpy1(o_row, a_at(row0 + i, kk), &bv[kk * n..(kk + 1) * n]);
                kk += 1;
            }
            i += 1;
        }
    }
}

simd_dispatch!(fn kernel_rows_with / kernel_rows_with_avx2 / kernel_rows_with_body
<F: Fn(usize, usize) -> f32>(
    a_at: F,
    bv: &[f32],
    out_rows: &mut [f32],
    row0: usize,
    rows: usize,
    k: usize,
    n: usize,
));

fn kernel_rows(
    av: &[f32],
    bv: &[f32],
    out_rows: &mut [f32],
    row0: usize,
    rows: usize,
    k: usize,
    n: usize,
) {
    kernel_rows_with(|i, kk| av[i * k + kk], bv, out_rows, row0, rows, k, n);
}

/// `out[row0..row0+rows] += a^T[row0..] @ b` with `a: [k, m]`, `b: [k, n]`.
#[allow(clippy::too_many_arguments)]
fn kernel_rows_ta(
    av: &[f32],
    bv: &[f32],
    out_rows: &mut [f32],
    row0: usize,
    rows: usize,
    k: usize,
    m: usize,
    n: usize,
) {
    kernel_rows_with(|i, kk| av[kk * m + i], bv, out_rows, row0, rows, k, n);
}

/// Packs `a^T` (`[k, m]` -> `[m, k]`) into a caller-provided scratch slice
/// so transposed products can run the contiguous-row kernel instead of
/// taking a strided load per `k` step. The walk is tiled 32×32 so both the
/// source reads and the destination writes stay within a cache line's reach
/// regardless of which operand is the strided one. Worth it whenever the
/// `O(k*m)` copy is small next to the `O(m*k*n)` product — callers gate on
/// that, and draw `dst` from the thread-local arena so the pack allocates
/// nothing in steady state.
fn transpose_pack_into(av: &[f32], k: usize, m: usize, dst: &mut [f32]) {
    debug_assert_eq!(dst.len(), k * m);
    const TB: usize = 32;
    for kb in (0..k).step_by(TB) {
        let kend = (kb + TB).min(k);
        for mb in (0..m).step_by(TB) {
            let mend = (mb + TB).min(m);
            for kk in kb..kend {
                let row = &av[kk * m..(kk + 1) * m];
                for i in mb..mend {
                    dst[i * k + kk] = row[i];
                }
            }
        }
    }
}

/// `out[row0..row0+rows] += a[row0..] @ b^T` with `a: [m, k]`, `b: [n, k]`.
///
/// Each output row is one linear stream over `b` (hardware-prefetch
/// friendly). Dot products use four independent accumulator lanes (folded
/// `(l0+l1)+(l2+l3)` at the end), which reorders the floating-point sum
/// relative to the naive kernel -- agreement is to rounding, not bits.
#[inline(always)]
fn kernel_rows_tb_body(
    av: &[f32],
    bv: &[f32],
    out_rows: &mut [f32],
    row0: usize,
    rows: usize,
    k: usize,
    n: usize,
) {
    let chunks = k / 4 * 4;
    for i in 0..rows {
        let a_row = &av[(row0 + i) * k..(row0 + i + 1) * k];
        let o_row = &mut out_rows[i * n..(i + 1) * n];
        for (j, o) in o_row.iter_mut().enumerate() {
            let b_row = &bv[j * k..(j + 1) * k];
            let mut lanes = [0.0f32; 4];
            let mut kk = 0;
            while kk < chunks {
                lanes[0] += a_row[kk] * b_row[kk];
                lanes[1] += a_row[kk + 1] * b_row[kk + 1];
                lanes[2] += a_row[kk + 2] * b_row[kk + 2];
                lanes[3] += a_row[kk + 3] * b_row[kk + 3];
                kk += 4;
            }
            let mut acc = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
            while kk < k {
                acc += a_row[kk] * b_row[kk];
                kk += 1;
            }
            *o += acc;
        }
    }
}

simd_dispatch!(fn kernel_rows_tb / kernel_rows_tb_avx2 / kernel_rows_tb_body
<>(
    av: &[f32],
    bv: &[f32],
    out_rows: &mut [f32],
    row0: usize,
    rows: usize,
    k: usize,
    n: usize,
));

// ---------------------------------------------------------------------------
// Matmul
// ---------------------------------------------------------------------------

pub(crate) fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = check_rank2(a, "matmul")?;
    let (k2, n) = check_rank2(b, "matmul")?;
    if k != k2 {
        return Err(TensorError::MatmulDimMismatch {
            lhs_cols: k,
            rhs_rows: k2,
        });
    }
    let mut out = Tensor::zeros(&[m, n]);
    let (av, bv) = (a.as_slice(), b.as_slice());
    let rows_per = row_chunk(m, 2 * k * n);
    par::for_each_chunk_mut(out.as_mut_slice(), rows_per * n.max(1), |ci, chunk| {
        let row0 = ci * rows_per;
        kernel_rows(av, bv, chunk, row0, chunk.len() / n.max(1), k, n);
    });
    Ok(out)
}

pub(crate) fn matmul_transpose_a(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (k, m) = check_rank2(a, "matmul_transpose_a")?;
    let (k2, n) = check_rank2(b, "matmul_transpose_a")?;
    if k != k2 {
        return Err(TensorError::MatmulDimMismatch {
            lhs_cols: k,
            rhs_rows: k2,
        });
    }
    let mut out = Tensor::zeros(&[m, n]);
    let (av, bv) = (a.as_slice(), b.as_slice());
    let rows_per = row_chunk(m, 2 * k * n);
    // With a sizable product, pay O(k*m) once to pack the A-panels into the
    // arena and turn every a-load contiguous; tiny products keep the
    // strided kernel.
    if 2 * m * n * k >= MIN_PAR_FLOPS {
        let mut at = arena::take(k * m);
        transpose_pack_into(av, k, m, &mut at);
        let atv: &[f32] = &at;
        par::for_each_chunk_mut(out.as_mut_slice(), rows_per * n.max(1), |ci, chunk| {
            let row0 = ci * rows_per;
            kernel_rows(atv, bv, chunk, row0, chunk.len() / n.max(1), k, n);
        });
    } else {
        par::for_each_chunk_mut(out.as_mut_slice(), rows_per * n.max(1), |ci, chunk| {
            let row0 = ci * rows_per;
            kernel_rows_ta(av, bv, chunk, row0, chunk.len() / n.max(1), k, m, n);
        });
    }
    Ok(out)
}

pub(crate) fn matmul_transpose_b(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = check_rank2(a, "matmul_transpose_b")?;
    let (n, k2) = check_rank2(b, "matmul_transpose_b")?;
    if k != k2 {
        return Err(TensorError::MatmulDimMismatch {
            lhs_cols: k,
            rhs_rows: k2,
        });
    }
    let mut out = Tensor::zeros(&[m, n]);
    let (av, bv) = (a.as_slice(), b.as_slice());
    let rows_per = row_chunk(m, 2 * k * n);
    // The dot-product kernel cannot vectorize its float reduction, so with a
    // sizable product it pays to pack b^T once (into the arena) and run the
    // fast streaming kernel instead.
    if 2 * m * n * k >= MIN_PAR_FLOPS {
        let mut bt = arena::take(n * k);
        transpose_pack_into(bv, n, k, &mut bt);
        let btv: &[f32] = &bt;
        par::for_each_chunk_mut(out.as_mut_slice(), rows_per * n.max(1), |ci, chunk| {
            let row0 = ci * rows_per;
            kernel_rows(av, btv, chunk, row0, chunk.len() / n.max(1), k, n);
        });
    } else {
        par::for_each_chunk_mut(out.as_mut_slice(), rows_per * n.max(1), |ci, chunk| {
            let row0 = ci * rows_per;
            kernel_rows_tb(av, bv, chunk, row0, chunk.len() / n.max(1), k, n);
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Convolution: the fused engine.
//
// Three shape-dispatched paths (see `ops::conv` module docs), all drawing
// scratch from the thread-local arena so the steady-state hot path never
// touches the heap, all pool-chunked over output tiles (contiguous spans of
// `[N*O, OH*OW]` output rows) so single-sample inference still parallelizes.
// ---------------------------------------------------------------------------

/// Target panel width (output columns) for the panel-wise im2col fallback:
/// a `[C*KH*KW, PANEL_COLS]` patch panel stays L2-resident while the GEMM
/// sweeps its row blocks over it.
const PANEL_COLS: usize = 128;

/// The kernel a given convolution geometry dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConvPath {
    /// 1×1 kernels: a pure (strided) matmul, no unfold at all.
    MatmulOneByOne,
    /// 3×3 / stride 1 / pad 1: blocked direct kernel (shifted row-axpy
    /// stencil), no patch matrix.
    Direct3x3,
    /// 3×3 / stride ≥ 2 / pad 1 (the ResNet stage-entry shape): direct
    /// stencil over strided column taps — the im2col panel for this shape
    /// is 9× the output it produces, so skipping the unfold wins harder
    /// than in the stride-1 case.
    Direct3x3Strided,
    /// 5×5 / stride 1 / pad 2: direct shifted row-axpy over five-tap rows.
    /// The wider window raises the arithmetic intensity per loaded input
    /// row, so the direct crossover sits above the 3×3 one.
    Direct5x5,
    /// Everything else: panel-wise im2col into the arena.
    Im2colPanels,
}

/// Per-sample flop ceiling below which the direct 3×3 stencil beats the
/// panel GEMM (measured on the bench shapes: the stencil's lighter setup
/// and zero unfold win while the working set is cache-tight; at larger
/// geometry the packed GEMM's register blocking takes over).
const DIRECT3X3_MAX_SAMPLE_FLOPS: usize = 1 << 21;

/// Widened crossover for the direct 5×5 stencil: 25 taps per output element
/// amortize each loaded input row over more arithmetic than 9 taps do, so
/// the direct path stays ahead of the panel GEMM to twice the flop count.
const DIRECT5X5_MAX_SAMPLE_FLOPS: usize = 1 << 22;

/// Chooses the kernel for a convolution geometry. `sample_flops` is the
/// per-sample multiply-add count (`2 · O · OH·OW · C·KH·KW`).
pub(crate) fn conv_path(
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    sample_flops: usize,
) -> ConvPath {
    if kh == 1 && kw == 1 && pad == 0 {
        ConvPath::MatmulOneByOne
    } else if kh == 3 && kw == 3 && pad == 1 && sample_flops <= DIRECT3X3_MAX_SAMPLE_FLOPS {
        if stride == 1 {
            ConvPath::Direct3x3
        } else {
            ConvPath::Direct3x3Strided
        }
    } else if kh == 5
        && kw == 5
        && stride == 1
        && pad == 2
        && sample_flops <= DIRECT5X5_MAX_SAMPLE_FLOPS
    {
        ConvPath::Direct5x5
    } else {
        ConvPath::Im2colPanels
    }
}

/// Validated geometry of one conv2d call, shared by forward and backward.
#[derive(Debug, Clone, Copy)]
struct ConvGeom {
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    o: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
}

impl ConvGeom {
    fn validate(input: &Tensor, pv: &PackView<'_>, stride: usize, pad: usize) -> Result<Self> {
        if input.rank() != 4 {
            return Err(TensorError::RankMismatch {
                expected: 4,
                got: input.rank(),
                op: "conv2d",
            });
        }
        let (n, c, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
        if c != pv.c {
            return Err(TensorError::ShapeMismatch {
                expected: vec![pv.o, c, pv.kh, pv.kw],
                got: vec![pv.o, pv.c, pv.kh, pv.kw],
                op: "conv2d (input channels)",
            });
        }
        let oh = conv_output_size(h, pv.kh, stride, pad)?;
        let ow = conv_output_size(w, pv.kw, stride, pad)?;
        Ok(ConvGeom {
            n,
            c,
            h,
            w,
            o: pv.o,
            kh: pv.kh,
            kw: pv.kw,
            stride,
            pad,
            oh,
            ow,
        })
    }

    #[inline]
    fn spatial(&self) -> usize {
        self.oh * self.ow
    }

    #[inline]
    fn ckk(&self) -> usize {
        self.c * self.kh * self.kw
    }

    #[inline]
    fn in_sample(&self) -> usize {
        self.c * self.h * self.w
    }

    #[inline]
    fn out_sample(&self) -> usize {
        self.o * self.spatial()
    }

    /// Output rows per im2col panel (`tile_rows * ow ≈ PANEL_COLS` output
    /// columns per panel).
    #[inline]
    fn tile_rows(&self) -> usize {
        (PANEL_COLS / self.ow.max(1)).clamp(1, self.oh.max(1))
    }

    #[inline]
    fn path(&self) -> ConvPath {
        let sample_flops = 2 * self.o * self.spatial() * self.ckk();
        conv_path(self.kh, self.kw, self.stride, self.pad, sample_flops)
    }
}

fn check_conv_bias(bias: Option<&Tensor>, o: usize) -> Result<()> {
    if let Some(b) = bias {
        if b.dims() != [o] {
            return Err(TensorError::ShapeMismatch {
                expected: vec![o],
                got: b.dims().to_vec(),
                op: "conv2d (bias)",
            });
        }
    }
    Ok(())
}

/// The shifted row-axpy stencil of the direct 3×3 kernel's remainder rows:
/// `dst[j] += w0*src[j-1] + w1*src[j] + w2*src[j+1]` with zero-padding at
/// the row borders, each element's adds in `kj` order (matching the naive
/// oracle's accumulation order bit for bit). Both border values are
/// computed first and stored after the interior loop: a store ahead of the
/// loop keeps LLVM from vectorizing it.
#[inline(always)]
fn axpy_shift3(dst: &mut [f32], src: &[f32], w0: f32, w1: f32, w2: f32) {
    let n = dst.len();
    let src = &src[..n];
    if n < 2 {
        if n == 1 {
            dst[0] += w1 * src[0];
        }
        return;
    }
    let first = (dst[0] + w1 * src[0]) + w2 * src[1];
    let last = (dst[n - 1] + w0 * src[n - 2]) + w1 * src[n - 1];
    let (l, m, r) = (&src[..n - 2], &src[1..n - 1], &src[2..]);
    for (((d, &a), &b), &c) in dst[1..n - 1].iter_mut().zip(l).zip(m).zip(r) {
        *d = ((*d + w0 * a) + w1 * b) + w2 * c;
    }
    dst[0] = first;
    dst[n - 1] = last;
}

/// Strided variant of [`axpy_shift3`]: output column `owi` reads input
/// columns `owi*stride + kj - 1`, dropping taps that fall in the horizontal
/// padding. `src` is the full input row (`W` wide); each element's adds stay
/// in `kj` order.
#[inline(always)]
fn axpy_shift3_strided(dst: &mut [f32], src: &[f32], w0: f32, w1: f32, w2: f32, stride: usize) {
    let w = src.len();
    for (owi, d) in dst.iter_mut().enumerate() {
        let base = owi * stride;
        let mut acc = *d;
        if base >= 1 {
            acc += w0 * src[base - 1];
        }
        acc += w1 * src[base];
        if base + 1 < w {
            acc += w2 * src[base + 1];
        }
        *d = acc;
    }
}

/// Five-tap shifted row-axpy for the direct 5×5 / stride 1 / pad 2 kernel:
/// `dst[j] += Σ_kj t[kj] * src[j + kj - 2]`, dropping taps that fall in the
/// horizontal padding. The two border columns on each side take the checked
/// path; the interior runs branch-free with all five taps in `kj` order.
#[inline(always)]
fn axpy_shift5(dst: &mut [f32], src: &[f32], t: &[f32; 5]) {
    let n = dst.len();
    let src = &src[..n];
    if n == 0 {
        return;
    }
    let lo = 2.min(n);
    let hi = n.saturating_sub(2).max(lo);
    for j in (0..lo).chain(hi..n) {
        let mut acc = dst[j];
        for (kj, &tv) in t.iter().enumerate() {
            let iw = (j + kj) as isize - 2;
            if iw >= 0 && (iw as usize) < n {
                acc += tv * src[iw as usize];
            }
        }
        dst[j] = acc;
    }
    for j in lo..hi {
        dst[j] = ((((dst[j] + t[0] * src[j - 2]) + t[1] * src[j - 1]) + t[2] * src[j])
            + t[3] * src[j + 1])
            + t[4] * src[j + 2];
    }
}

/// Fully fused 3×3 stencil: one pass over an output row applies all nine
/// taps of one input channel to four output-channel rows. `rm1`/`r0`/`rp1`
/// are the three input rows feeding this output row (callers substitute a
/// zero row at the vertical borders, which reproduces the naive oracle's
/// explicit `+w·0.0` padding terms). Each output element accumulates its
/// nine taps in `ki → kj` order — the oracle's order. Lengths are pinned up
/// front so the interior loop is bounds-check-free and vectorizes.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn stencil9_x4(
    d0: &mut [f32],
    d1: &mut [f32],
    d2: &mut [f32],
    d3: &mut [f32],
    rm1: &[f32],
    r0: &[f32],
    rp1: &[f32],
    wq: &[[[f32; 3]; 3]; 4],
) {
    let n = d0.len();
    let (d1, d2, d3) = (&mut d1[..n], &mut d2[..n], &mut d3[..n]);
    let (rm1, r0, rp1) = (&rm1[..n], &r0[..n], &rp1[..n]);
    if n == 0 {
        return;
    }
    // Column borders: the kj = 0 (left) / kj = 2 (right) taps fall on
    // horizontal padding and are dropped (they contribute exact zeros).
    macro_rules! edge {
        // Applies the two in-bounds column taps `kj0 < kj1` at column `j`
        // (tap `kj` reads `src[j + kj - 1]`; the caller guarantees both
        // indices are in range).
        ($d:ident, $w:expr, $j:expr, $kj0:expr, $kj1:expr) => {
            $d[$j] = (((((($d[$j] + $w[0][$kj0] * rm1[$j + $kj0 - 1])
                + $w[0][$kj1] * rm1[$j + $kj1 - 1])
                + $w[1][$kj0] * r0[$j + $kj0 - 1])
                + $w[1][$kj1] * r0[$j + $kj1 - 1])
                + $w[2][$kj0] * rp1[$j + $kj0 - 1])
                + $w[2][$kj1] * rp1[$j + $kj1 - 1]);
        };
    }
    if n == 1 {
        for (d, w) in [(&mut *d0, &wq[0]), (d1, &wq[1]), (d2, &wq[2]), (d3, &wq[3])] {
            d[0] = ((d[0] + w[0][1] * rm1[0]) + w[1][1] * r0[0]) + w[2][1] * rp1[0];
        }
        return;
    }
    edge!(d0, wq[0], 0, 1, 2);
    edge!(d1, wq[1], 0, 1, 2);
    edge!(d2, wq[2], 0, 1, 2);
    edge!(d3, wq[3], 0, 1, 2);
    let last = n - 1;
    for j in 1..last {
        let (am, bm, cm) = (rm1[j - 1], rm1[j], rm1[j + 1]);
        let (a0, b0, c0) = (r0[j - 1], r0[j], r0[j + 1]);
        let (ap, bp, cp) = (rp1[j - 1], rp1[j], rp1[j + 1]);
        macro_rules! tap {
            ($d:ident, $w:expr) => {
                $d[j] = (((((((($d[j] + $w[0][0] * am) + $w[0][1] * bm) + $w[0][2] * cm)
                    + $w[1][0] * a0)
                    + $w[1][1] * b0)
                    + $w[1][2] * c0)
                    + $w[2][0] * ap)
                    + $w[2][1] * bp)
                    + $w[2][2] * cp;
            };
        }
        tap!(d0, wq[0]);
        tap!(d1, wq[1]);
        tap!(d2, wq[2]);
        tap!(d3, wq[3]);
    }
    edge!(d0, wq[0], last, 0, 1);
    edge!(d1, wq[1], last, 0, 1);
    edge!(d2, wq[2], last, 0, 1);
    edge!(d3, wq[3], last, 0, 1);
}

/// Direct 3×3 / stride 1 / pad 1 forward for output channels
/// `ch0..ch0+rows` of one sample: `dst` is the `[rows, H*W]` output span
/// (zero-initialized). Output channels are walked in blocks of four so each
/// loaded input row feeds four accumulator planes; per output element the
/// adds land in `ci → ki → kj` order, matching the naive im2col oracle.
/// Codegens twice (baseline + AVX2); call through
/// [`direct3x3_rows_portable`].
#[inline(always)]
fn direct3x3_rows_body(
    sample: &[f32],
    wv: &[f32],
    dst: &mut [f32],
    ch0: usize,
    rows: usize,
    (c, h, w): (usize, usize, usize),
) {
    let spatial = h * w;
    // Stand-in for the vertically-padded rows above/below the image.
    let zrow = arena::take_zeroed(w);
    let mut r = 0;
    while r + 4 <= rows {
        let (p0, rest) = dst[r * spatial..(r + 4) * spatial].split_at_mut(spatial);
        let (p1, rest) = rest.split_at_mut(spatial);
        let (p2, p3) = rest.split_at_mut(spatial);
        for ci in 0..c {
            let plane = &sample[ci * spatial..(ci + 1) * spatial];
            // This ci's 3×3 taps for the four channels of the block.
            let mut wq = [[[0.0f32; 3]; 3]; 4];
            for (q, taps) in wq.iter_mut().enumerate() {
                let base = (((ch0 + r + q) * c + ci) * 3) * 3;
                for (ki, row) in taps.iter_mut().enumerate() {
                    row.copy_from_slice(&wv[base + 3 * ki..base + 3 * ki + 3]);
                }
            }
            for ohi in 0..h {
                let rm1 = if ohi > 0 {
                    &plane[(ohi - 1) * w..ohi * w]
                } else {
                    &zrow[..]
                };
                let r0 = &plane[ohi * w..(ohi + 1) * w];
                let rp1 = if ohi + 1 < h {
                    &plane[(ohi + 1) * w..(ohi + 2) * w]
                } else {
                    &zrow[..]
                };
                let span = ohi * w..(ohi + 1) * w;
                stencil9_x4(
                    &mut p0[span.clone()],
                    &mut p1[span.clone()],
                    &mut p2[span.clone()],
                    &mut p3[span],
                    rm1,
                    r0,
                    rp1,
                    &wq,
                );
            }
        }
        r += 4;
    }
    // Remainder channels (rows not a multiple of four): one row at a time,
    // per-ki passes.
    while r < rows {
        let block = &mut dst[r * spatial..(r + 1) * spatial];
        for ci in 0..c {
            let plane = &sample[ci * spatial..(ci + 1) * spatial];
            for ki in 0..3usize {
                let wbase = (((ch0 + r) * c + ci) * 3 + ki) * 3;
                let lo = 1usize.saturating_sub(ki);
                let hi = (h + 1 - ki).min(h);
                for ohi in lo..hi {
                    let in_row = &plane[(ohi + ki - 1) * w..(ohi + ki) * w];
                    let dst_row = &mut block[ohi * w..(ohi + 1) * w];
                    axpy_shift3(dst_row, in_row, wv[wbase], wv[wbase + 1], wv[wbase + 2]);
                }
            }
        }
        r += 1;
    }
}

simd_dispatch!(fn direct3x3_rows_portable / direct3x3_rows_portable_avx2 / direct3x3_rows_body
<>(
    sample: &[f32],
    wv: &[f32],
    dst: &mut [f32],
    ch0: usize,
    rows: usize,
    chw: (usize, usize, usize),
));

/// AVX2+FMA implementation of the direct 3×3 stencil. Rust never contracts
/// `a*b + c` on its own (`ffp-contract=off`), so the portable kernel pays
/// separate multiply and add issue slots *and* 36 live broadcast weights —
/// more than the 16 vector registers x86 offers. Explicit `vfmaddps`
/// halves the arithmetic ops and lets the weight broadcasts ride as memory
/// operands, which is what makes the direct path beat im2col GEMM on this
/// geometry (the same trick production conv JITs use). Accumulation stays
/// in the oracle's `ci → ki → kj` order; only FMA's fused rounding differs,
/// well inside the 1e-5 parity budget.
#[cfg(target_arch = "x86_64")]
mod direct3x3_fma {
    #![allow(unsafe_code)]

    use std::arch::x86_64::{
        __m256, __m256i, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_loadu_si256, _mm256_maskload_ps,
        _mm256_maskstore_ps, _mm256_set1_ps, _mm256_storeu_ps,
    };

    /// Sliding-window mask table: `MASKS[8 - rem ..]` yields a lane mask
    /// with the first `rem` lanes active.
    const MASKS: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

    /// One input channel's contribution to four output-channel planes,
    /// all rows, all nine taps. Taking the whole plane in one call lets the
    /// 36 broadcast weights be materialized once instead of once per row.
    ///
    /// `d` points at the four channels' output planes (each `h*w` long,
    /// disjoint), `plane` at the input channel, `zrow` at `w` zeros (the
    /// stand-in for vertically-padded rows).
    ///
    /// # Safety
    ///
    /// Caller must have verified `avx2` and `fma` CPU support and that the
    /// pointers address the stated extents (`h*w` f32s for `d`/`plane`,
    /// `w` for `zrow`), with the `d` planes mutually disjoint.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn stencil_plane_x4(
        d: [*mut f32; 4],
        plane: *const f32,
        zrow: *const f32,
        wq: &[[[f32; 3]; 3]; 4],
        h: usize,
        w: usize,
    ) {
        unsafe {
            // Broadcast the 36 taps once per (channel, block); LLVM spills
            // what does not fit and re-feeds the FMAs from the stack as
            // memory operands.
            let mut wv: [[__m256; 9]; 4] = [[_mm256_set1_ps(0.0); 9]; 4];
            for q in 0..4 {
                for ki in 0..3 {
                    for kj in 0..3 {
                        wv[q][3 * ki + kj] = _mm256_set1_ps(wq[q][ki][kj]);
                    }
                }
            }
            for ohi in 0..h {
                let rm1 = if ohi > 0 {
                    plane.add((ohi - 1) * w)
                } else {
                    zrow
                };
                let r0 = plane.add(ohi * w);
                let rp1 = if ohi + 1 < h {
                    plane.add((ohi + 1) * w)
                } else {
                    zrow
                };
                let row = ohi * w;
                if w == 1 {
                    for q in 0..4 {
                        let dq = d[q].add(row);
                        *dq = ((*dq + wq[q][0][1] * *rm1) + wq[q][1][1] * *r0) + wq[q][2][1] * *rp1;
                    }
                    continue;
                }
                // Interior columns in 8-lane groups.
                let mut j = 1usize;
                while j + 8 < w {
                    let am = _mm256_loadu_ps(rm1.add(j - 1));
                    let bm = _mm256_loadu_ps(rm1.add(j));
                    let cm = _mm256_loadu_ps(rm1.add(j + 1));
                    let a0 = _mm256_loadu_ps(r0.add(j - 1));
                    let b0 = _mm256_loadu_ps(r0.add(j));
                    let c0 = _mm256_loadu_ps(r0.add(j + 1));
                    let ap = _mm256_loadu_ps(rp1.add(j - 1));
                    let bp = _mm256_loadu_ps(rp1.add(j));
                    let cp = _mm256_loadu_ps(rp1.add(j + 1));
                    for q in 0..4 {
                        let dq = d[q].add(row + j);
                        let mut acc = _mm256_loadu_ps(dq);
                        acc = _mm256_fmadd_ps(wv[q][0], am, acc);
                        acc = _mm256_fmadd_ps(wv[q][1], bm, acc);
                        acc = _mm256_fmadd_ps(wv[q][2], cm, acc);
                        acc = _mm256_fmadd_ps(wv[q][3], a0, acc);
                        acc = _mm256_fmadd_ps(wv[q][4], b0, acc);
                        acc = _mm256_fmadd_ps(wv[q][5], c0, acc);
                        acc = _mm256_fmadd_ps(wv[q][6], ap, acc);
                        acc = _mm256_fmadd_ps(wv[q][7], bp, acc);
                        acc = _mm256_fmadd_ps(wv[q][8], cp, acc);
                        _mm256_storeu_ps(dq, acc);
                    }
                    j += 8;
                }
                // Masked tail group: the last `rem < 8` interior columns
                // run as one predicated vector group instead of scalars.
                let rem = (w - 1).saturating_sub(j);
                if rem > 0 {
                    let mask: __m256i =
                        _mm256_loadu_si256(MASKS[8 - rem..].as_ptr().cast::<__m256i>());
                    let am = _mm256_maskload_ps(rm1.add(j - 1), mask);
                    let bm = _mm256_maskload_ps(rm1.add(j), mask);
                    let cm = _mm256_maskload_ps(rm1.add(j + 1), mask);
                    let a0 = _mm256_maskload_ps(r0.add(j - 1), mask);
                    let b0 = _mm256_maskload_ps(r0.add(j), mask);
                    let c0 = _mm256_maskload_ps(r0.add(j + 1), mask);
                    let ap = _mm256_maskload_ps(rp1.add(j - 1), mask);
                    let bp = _mm256_maskload_ps(rp1.add(j), mask);
                    let cp = _mm256_maskload_ps(rp1.add(j + 1), mask);
                    for q in 0..4 {
                        let dq = d[q].add(row + j);
                        let mut acc = _mm256_maskload_ps(dq, mask);
                        acc = _mm256_fmadd_ps(wv[q][0], am, acc);
                        acc = _mm256_fmadd_ps(wv[q][1], bm, acc);
                        acc = _mm256_fmadd_ps(wv[q][2], cm, acc);
                        acc = _mm256_fmadd_ps(wv[q][3], a0, acc);
                        acc = _mm256_fmadd_ps(wv[q][4], b0, acc);
                        acc = _mm256_fmadd_ps(wv[q][5], c0, acc);
                        acc = _mm256_fmadd_ps(wv[q][6], ap, acc);
                        acc = _mm256_fmadd_ps(wv[q][7], bp, acc);
                        acc = _mm256_fmadd_ps(wv[q][8], cp, acc);
                        _mm256_maskstore_ps(dq, mask, acc);
                    }
                }
                // Column borders: the out-of-image tap is horizontal padding.
                for q in 0..4 {
                    let t = wq[q];
                    let dq = d[q].add(row);
                    let mut acc = *dq;
                    acc = t[0][1].mul_add(*rm1, acc);
                    acc = t[0][2].mul_add(*rm1.add(1), acc);
                    acc = t[1][1].mul_add(*r0, acc);
                    acc = t[1][2].mul_add(*r0.add(1), acc);
                    acc = t[2][1].mul_add(*rp1, acc);
                    acc = t[2][2].mul_add(*rp1.add(1), acc);
                    *dq = acc;
                    let last = w - 1;
                    let dq = d[q].add(row + last);
                    let mut acc = *dq;
                    acc = t[0][0].mul_add(*rm1.add(last - 1), acc);
                    acc = t[0][1].mul_add(*rm1.add(last), acc);
                    acc = t[1][0].mul_add(*r0.add(last - 1), acc);
                    acc = t[1][1].mul_add(*r0.add(last), acc);
                    acc = t[2][0].mul_add(*rp1.add(last - 1), acc);
                    acc = t[2][1].mul_add(*rp1.add(last), acc);
                    *dq = acc;
                }
            }
        }
    }
}

/// True when the CPU can run the FMA stencil.
#[inline]
fn have_avx2_fma() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// FMA-accelerated variant of [`direct3x3_rows_body`]: same loop structure,
/// intrinsic row stencil.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
fn direct3x3_rows_fma(
    sample: &[f32],
    wv: &[f32],
    dst: &mut [f32],
    ch0: usize,
    rows: usize,
    c: usize,
    h: usize,
    w: usize,
) {
    let spatial = h * w;
    let zrow = arena::take_zeroed(w);
    let mut r = 0;
    while r + 4 <= rows {
        let (p0, rest) = dst[r * spatial..(r + 4) * spatial].split_at_mut(spatial);
        let (p1, rest) = rest.split_at_mut(spatial);
        let (p2, p3) = rest.split_at_mut(spatial);
        for ci in 0..c {
            let plane = &sample[ci * spatial..(ci + 1) * spatial];
            let mut wq = [[[0.0f32; 3]; 3]; 4];
            for (q, taps) in wq.iter_mut().enumerate() {
                let base = (((ch0 + r + q) * c + ci) * 3) * 3;
                for (ki, row) in taps.iter_mut().enumerate() {
                    row.copy_from_slice(&wv[base + 3 * ki..base + 3 * ki + 3]);
                }
            }
            let d = [
                p0.as_mut_ptr(),
                p1.as_mut_ptr(),
                p2.as_mut_ptr(),
                p3.as_mut_ptr(),
            ];
            // SAFETY: avx2+fma verified by the dispatcher below; the four
            // output planes come from disjoint `split_at_mut` regions and
            // `plane`/`zrow` span `h*w` / `w` in-bounds f32s.
            #[allow(unsafe_code)]
            unsafe {
                direct3x3_fma::stencil_plane_x4(d, plane.as_ptr(), zrow.as_ptr(), &wq, h, w);
            }
        }
        r += 4;
    }
    if r < rows {
        // Remainder channels reuse the portable path, without FMA.
        direct3x3_rows_portable(
            sample,
            wv,
            &mut dst[r * spatial..],
            ch0 + r,
            rows - r,
            (c, h, w),
        );
    }
}

/// Direct 3×3 dispatcher: FMA stencil when the CPU has it, portable
/// stencil otherwise.
#[allow(clippy::too_many_arguments)]
fn direct3x3_rows(
    sample: &[f32],
    wv: &[f32],
    dst: &mut [f32],
    ch0: usize,
    rows: usize,
    c: usize,
    h: usize,
    w: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if have_avx2_fma() {
        return direct3x3_rows_fma(sample, wv, dst, ch0, rows, c, h, w);
    }
    direct3x3_rows_portable(sample, wv, dst, ch0, rows, (c, h, w))
}

/// Direct 3×3 / stride ≥ 2 / pad 1 forward for output channels
/// `ch0..ch0+rows` of one sample: per `ki` tap row, each valid output row
/// pulls its strided column taps straight from the input row — no patch
/// matrix, no gather. Per output element the adds land in `ci → ki → kj`
/// order, matching the naive im2col oracle.
#[allow(clippy::too_many_arguments)]
fn direct3x3_strided_rows(
    sample: &[f32],
    wv: &[f32],
    dst: &mut [f32],
    ch0: usize,
    rows: usize,
    g: &ConvGeom,
) {
    let (c, h, w, s) = (g.c, g.h, g.w, g.stride);
    let (oh, ow) = (g.oh, g.ow);
    let spatial = oh * ow;
    for r in 0..rows {
        let block = &mut dst[r * spatial..(r + 1) * spatial];
        for ci in 0..c {
            let plane = &sample[ci * h * w..(ci + 1) * h * w];
            for ki in 0..3usize {
                let wbase = (((ch0 + r) * c + ci) * 3 + ki) * 3;
                let (w0, w1, w2) = (wv[wbase], wv[wbase + 1], wv[wbase + 2]);
                for ohi in 0..oh {
                    let ih = (ohi * s + ki) as isize - 1;
                    if ih < 0 || ih >= h as isize {
                        continue;
                    }
                    let in_row = &plane[ih as usize * w..(ih as usize + 1) * w];
                    let dst_row = &mut block[ohi * ow..(ohi + 1) * ow];
                    axpy_shift3_strided(dst_row, in_row, w0, w1, w2, s);
                }
            }
        }
    }
}

/// Direct 5×5 / stride 1 / pad 2 forward for output channels
/// `ch0..ch0+rows` of one sample (`OH = H`, `OW = W`): per `ki` tap row the
/// valid output rows sweep [`axpy_shift5`] over the shifted input row. Per
/// output element the adds land in `ci → ki → kj` order, matching the naive
/// im2col oracle.
#[allow(clippy::too_many_arguments)]
fn direct5x5_rows(
    sample: &[f32],
    wv: &[f32],
    dst: &mut [f32],
    ch0: usize,
    rows: usize,
    c: usize,
    h: usize,
    w: usize,
) {
    let spatial = h * w;
    for r in 0..rows {
        let block = &mut dst[r * spatial..(r + 1) * spatial];
        for ci in 0..c {
            let plane = &sample[ci * spatial..(ci + 1) * spatial];
            for ki in 0..5usize {
                let wbase = (((ch0 + r) * c + ci) * 5 + ki) * 5;
                let mut taps = [0.0f32; 5];
                taps.copy_from_slice(&wv[wbase..wbase + 5]);
                // Input row `ohi + ki - 2`; rows falling in the vertical
                // padding contribute exact zeros and are skipped.
                let lo = 2usize.saturating_sub(ki);
                let hi = (h + 2).saturating_sub(ki).min(h);
                for ohi in lo..hi {
                    let ih = ohi + ki - 2;
                    axpy_shift5(
                        &mut block[ohi * w..(ohi + 1) * w],
                        &plane[ih * w..(ih + 1) * w],
                        &taps,
                    );
                }
            }
        }
    }
}

/// Largest per-sample 1×1 input (`[C, OH*OW]` elements) that the AVX2
/// register tile takes; larger inputs take the row GEMM and the epilogue
/// sweep, which give the same bits. The tile walks its input in `[k, 24]`
/// column strips, a line or two from each of `k` rows a plane row apart,
/// while the row GEMM streams whole rows, and on large inputs the
/// streaming wins. Measured on a 2-vCPU Xeon at one thread, batch 8, no
/// bias (both paths called alternately in one process, medians over
/// 60–300 rounds, where identical code reads up to ±7% apart): up to 2^15
/// elements the tile takes 0.87–1.06× the row GEMM's time (64→64 on 14×14
/// to 20×20 planes, 128→128 on 14×14 and 16×16, 16 to 32 channels on
/// 30×30, every deployed pointwise shape), past it 1.13–1.31× for 64→64 on
/// 28×28 to 36×36 planes and 1.09–1.15× for 96→96 and 128→128 on 30×30.
const MAX_TILE_INPUT: usize = 1 << 15;

/// Per-segment epilogue operand: the same variants as
/// [`Epilogue`], with the fused-add tensor
/// already narrowed to the slice aligned with the `[rows, OH*OW]` output
/// span being computed.
#[derive(Clone, Copy)]
enum RowEpilogue<'a> {
    None,
    Relu,
    AddRelu(&'a [f32]),
    ReluAdd(&'a [f32]),
}

impl RowEpilogue<'_> {
    /// The epilogue of one biased output `v` at offset `k` of the span.
    #[inline(always)]
    fn apply(self, v: f32, k: usize) -> f32 {
        match self {
            RowEpilogue::None => v,
            RowEpilogue::Relu => v.max(0.0),
            RowEpilogue::AddRelu(t) => (v + t[k]).max(0.0),
            RowEpilogue::ReluAdd(t) => v.max(0.0) + t[k],
        }
    }

    /// [`apply`](Self::apply) on the 8 biased outputs at offsets
    /// `k..k + 8`, in registers, for the AVX2 kernels. Bit for bit the
    /// scalar epilogue: `_mm256_max_ps(v, 0)` returns `0` for a NaN `v` as
    /// `f32::max(v, 0.0)` does, and the fused add lands before or after it
    /// as the variant says. (Both agree on a `+0.0`/`-0.0` tie only because
    /// the kernels' accumulators start at `+0.0` and so are never `-0.0`.)
    ///
    /// # Safety
    ///
    /// Requires AVX2, and a fused-add operand of at least `k + 8` elements.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[inline]
    #[allow(unsafe_code)]
    unsafe fn apply8(self, v: std::arch::x86_64::__m256, k: usize) -> std::arch::x86_64::__m256 {
        use std::arch::x86_64::{_mm256_add_ps, _mm256_loadu_ps, _mm256_max_ps, _mm256_setzero_ps};
        // SAFETY: AVX2 per the contract, and a fused-add operand holds
        // `k + 8` elements.
        unsafe {
            let zero = _mm256_setzero_ps();
            match self {
                RowEpilogue::None => v,
                RowEpilogue::Relu => _mm256_max_ps(v, zero),
                RowEpilogue::AddRelu(t) => {
                    _mm256_max_ps(_mm256_add_ps(v, _mm256_loadu_ps(t.as_ptr().add(k))), zero)
                }
                RowEpilogue::ReluAdd(t) => {
                    _mm256_add_ps(_mm256_max_ps(v, zero), _mm256_loadu_ps(t.as_ptr().add(k)))
                }
            }
        }
    }
}

/// AVX2 1×1 GEMM microkernel: `dst[r, p] = epi(b + Σ_k w[ch0 + r, k] ·
/// x[k, p])` over the row-panel weight (`PACK_MR`-row blocks, zero-padded
/// past `O`), with each 4-channel × 24-pixel output tile held in 12 ymm
/// accumulators across all of `k` and the bias, activation and fused add
/// applied before its only store.
///
/// Bits match the portable `kernel_rows_with` + sweep path exactly: each
/// lane starts at `+0.0` and takes `vmulps` then `vaddps` per `k` in order
/// (never FMA), which is the scalar `acc + w·x` chain that `axpy4x4`,
/// `axpy4` and `axpy1` keep through their `KB` blocks. The accumulator is
/// never `-0.0`, so skipping the bias add when there is none equals the
/// sweep's `+ 0.0`; the epilogue is [`RowEpilogue::apply8`], shared with
/// the depthwise row kernel.
///
/// Column strips run outermost, so every row tile of the span sweeps the
/// same `[k, 24]` strip of the input while it is cached (in L2 rather than
/// L1 where the strip's rows alias a few L1 sets, as the 4 KiB rows of a
/// 32×32 plane do). Inputs past [`MAX_TILE_INPUT`] take the row GEMM
/// instead. A plane's tail takes one 16-wide and then 8-wide tiles; the
/// last 8-wide tile may overlap the one before it, which recomputes and
/// stores the same values. Rows past the chunk belong to the zero panel
/// padding past `O` (chunks start at a multiple of `PACK_MR` channels or at
/// a sample boundary): they are computed and never stored.
#[cfg(target_arch = "x86_64")]
mod pointwise_avx2 {
    #![allow(unsafe_code)]

    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };

    use super::RowEpilogue;
    use crate::ops::conv::PACK_MR;

    /// Output channels per register tile.
    const TILE_ROWS: usize = 4;

    /// Operands of one `[rows, n]` output span.
    #[derive(Clone, Copy)]
    pub(super) struct Span<'a> {
        /// Row-panel weight of the whole `[O, k]` operand.
        pub panels: &'a [f32],
        /// The `[k, n]` input (one sample, or its strided gather).
        pub x: &'a [f32],
        /// First output channel of the span within its sample.
        pub ch0: usize,
        /// Output channels in the span.
        pub rows: usize,
        /// Input channels.
        pub k: usize,
        /// Output pixels per channel.
        pub n: usize,
        /// Per-channel bias of the whole layer.
        pub bias: Option<&'a [f32]>,
        /// Epilogue, its operand narrowed to the span.
        pub epi: RowEpilogue<'a>,
    }

    /// Computes and stores the whole span. Panics unless `s.n >= 8`,
    /// `s.ch0` is a multiple of `PACK_MR` and every operand covers the
    /// span: the tiles' raw loads and stores rely on exactly these extents
    /// (a bias is indexed with bounds checks).
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn span(s: Span<'_>, dst: &mut [f32]) {
        let (n, rows) = (s.n, s.rows);
        assert!(n >= 8 && s.ch0.is_multiple_of(PACK_MR), "1x1 tile geometry");
        assert!(
            s.x.len() >= s.k * n && dst.len() >= rows * n,
            "1x1 tile extents"
        );
        // Row tiles read whole 4-row halves of the padded `PACK_MR` blocks.
        let blocks = (s.ch0 + rows).div_ceil(PACK_MR);
        assert!(s.panels.len() >= blocks * PACK_MR * s.k, "1x1 tile panels");
        if let RowEpilogue::AddRelu(o) | RowEpilogue::ReluAdd(o) = s.epi {
            assert!(o.len() >= rows * n, "fused-add operand spans the output");
        }
        // SAFETY: AVX2 per the contract; the extents the tiles rely on are
        // asserted above.
        unsafe {
            let mut j = 0;
            while j + 24 <= n {
                strip::<3>(s, dst, j);
                j += 24;
            }
            if j + 16 <= n {
                strip::<2>(s, dst, j);
                j += 16;
            }
            while j < n {
                let j0 = j.min(n - 8);
                strip::<1>(s, dst, j0);
                j = j0 + 8;
            }
        }
    }

    /// One `8·V`-column strip at column `j0`, every row tile of the span.
    ///
    /// # Safety
    ///
    /// Requires AVX2, the extents `span` asserts, and `j0 + 8·V <= s.n`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn strip<const V: usize>(s: Span<'_>, dst: &mut [f32], j0: usize) {
        let mut t = 0;
        while t < s.rows {
            let gi = s.ch0 + t;
            // Row `gi`'s weights sit at `(gi / 8) * k * 8 + gi % 8`, the
            // next `k` steps `PACK_MR` apart; a 4-row tile is half a block.
            let a = (gi / PACK_MR) * s.k * PACK_MR + gi % PACK_MR;
            // SAFETY: forwarded from this function's contract; `gi` is a
            // multiple of 4 because `ch0` is one of `PACK_MR`.
            unsafe { tile::<V>(s, dst, a, t, j0) };
            t += TILE_ROWS;
        }
    }

    /// One `4 × 8·V` tile: rows `t..t + 4` of the span, columns
    /// `j0..j0 + 8·V`, weights from panel offset `a`.
    ///
    /// # Safety
    ///
    /// Requires AVX2, the extents `span` asserts, `j0 + 8·V <= s.n`, and
    /// `a` the panel offset of span row `t`, a multiple of 4.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn tile<const V: usize>(s: Span<'_>, dst: &mut [f32], a: usize, t: usize, j0: usize) {
        // SAFETY: by the extents `span` asserts, every panel read
        // `a + kk * PACK_MR + q` lies in the padded block of row `t + q`
        // (`a % PACK_MR` is 0 or 4), every input load `kk * n + j0..+8·V`
        // in `x`, and every store and operand load `(t + q) * n + j0..+8·V`
        // (for `t + q < rows`) in `dst` / the operand, since
        // `j0 + 8·V <= n`.
        unsafe {
            let (pa, px) = (s.panels.as_ptr().add(a), s.x.as_ptr().add(j0));
            let mut acc = [[_mm256_setzero_ps(); V]; TILE_ROWS];
            for kk in 0..s.k {
                let xr = px.add(kk * s.n);
                let mut xv = [_mm256_setzero_ps(); V];
                for (v, x) in xv.iter_mut().enumerate() {
                    *x = _mm256_loadu_ps(xr.add(8 * v));
                }
                let wk = pa.add(kk * PACK_MR);
                for (q, row) in acc.iter_mut().enumerate() {
                    let wq = _mm256_set1_ps(*wk.add(q));
                    for (r, &x) in row.iter_mut().zip(&xv) {
                        *r = _mm256_add_ps(*r, _mm256_mul_ps(wq, x));
                    }
                }
            }
            // A constant trip count keeps the accumulators in registers;
            // rows past the span are panel padding and never stored.
            for (q, row) in acc.iter().enumerate() {
                if t + q >= s.rows {
                    break;
                }
                let off = (t + q) * s.n + j0;
                let d = dst.as_mut_ptr().add(off);
                let b = s.bias.map(|bv| _mm256_set1_ps(bv[s.ch0 + t + q]));
                for (v, &r) in row.iter().enumerate() {
                    let y = match b {
                        Some(b) => _mm256_add_ps(r, b),
                        None => r,
                    };
                    _mm256_storeu_ps(d.add(8 * v), s.epi.apply8(y, off + 8 * v));
                }
            }
        }
    }
}

/// Forward kernel for output channels `ch0..ch0+rows` of one sample.
/// `dst` is the `[rows, OH*OW]` output span, zero-initialized by the caller.
#[allow(clippy::too_many_arguments)] // internal kernel plumbing, not public API
fn forward_sample_rows(
    sample: &[f32],
    pv: &PackView<'_>,
    g: &ConvGeom,
    dst: &mut [f32],
    ch0: usize,
    rows: usize,
    bias: Option<&[f32]>,
    epilogue: RowEpilogue<'_>,
) {
    let spatial = g.spatial();
    match g.path() {
        ConvPath::MatmulOneByOne => {
            // Stride 1: the sample *is* the `[C, H*W]` patch matrix. Strided:
            // gather the subsampled `[C, OH*OW]` operand first. Still no
            // kh/kw unfold either way.
            let mut cols = arena::take(if g.stride == 1 { 0 } else { g.c * spatial });
            if g.stride != 1 {
                for ci in 0..g.c {
                    let plane = &sample[ci * g.h * g.w..(ci + 1) * g.h * g.w];
                    let dst_row = &mut cols[ci * spatial..(ci + 1) * spatial];
                    let mut t = 0;
                    for ohi in 0..g.oh {
                        let in_row = &plane[ohi * g.stride * g.w..];
                        for owi in 0..g.ow {
                            dst_row[t] = in_row[owi * g.stride];
                            t += 1;
                        }
                    }
                }
            }
            let x: &[f32] = if g.stride == 1 { sample } else { &cols };
            // Planes narrower than one 8-lane vector, inputs past
            // `MAX_TILE_INPUT`, and hosts without AVX2 take the portable
            // GEMM and the sweep below; both give the same bits.
            #[cfg(target_arch = "x86_64")]
            if spatial >= 8 && g.c * spatial <= MAX_TILE_INPUT && have_avx2() {
                let span = pointwise_avx2::Span {
                    panels: pv.panels,
                    x,
                    ch0,
                    rows,
                    k: g.c,
                    n: spatial,
                    bias,
                    epi: epilogue,
                };
                // SAFETY: AVX2 verified; `span` asserts the extents.
                #[allow(unsafe_code)]
                unsafe {
                    pointwise_avx2::span(span, dst);
                }
                return;
            }
            kernel_rows_with(|i, kk| pv.a_at(i, kk), x, dst, ch0, rows, g.c, spatial);
        }
        ConvPath::Direct3x3 => {
            direct3x3_rows(sample, pv.weight, dst, ch0, rows, g.c, g.h, g.w);
        }
        ConvPath::Direct3x3Strided => {
            direct3x3_strided_rows(sample, pv.weight, dst, ch0, rows, g);
        }
        ConvPath::Direct5x5 => {
            direct5x5_rows(sample, pv.weight, dst, ch0, rows, g.c, g.h, g.w);
        }
        ConvPath::Im2colPanels => {
            let ckk = g.ckk();
            let tile_rows = g.tile_rows();
            for oh0 in (0..g.oh).step_by(tile_rows.max(1)) {
                let oh1 = (oh0 + tile_rows).min(g.oh);
                let t = (oh1 - oh0) * g.ow;
                let mut panel = arena::take(ckk * t);
                im2col_panel(
                    sample, g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad, oh0, oh1, &mut panel,
                )
                .expect("conv geometry validated before dispatch");
                let mut prod = arena::take_zeroed(rows * t);
                kernel_rows_with(|i, kk| pv.a_at(i, kk), &panel, &mut prod, ch0, rows, ckk, t);
                let t0 = oh0 * g.ow;
                for r in 0..rows {
                    dst[r * spatial + t0..r * spatial + t0 + t]
                        .copy_from_slice(&prod[r * t..(r + 1) * t]);
                }
            }
        }
    }
    sweep_epilogue(dst, ch0, rows, spatial, bias, epilogue);
}

/// Bias and epilogue fold into one sweep over a `[rows, spatial]` output
/// span while it is cache-hot: the per-channel bias add, the activation and
/// the fused elementwise merge never become separate passes over a cold
/// output.
fn sweep_epilogue(
    dst: &mut [f32],
    ch0: usize,
    rows: usize,
    spatial: usize,
    bias: Option<&[f32]>,
    epilogue: RowEpilogue<'_>,
) {
    if bias.is_none() && matches!(epilogue, RowEpilogue::None) {
        return;
    }
    for r in 0..rows {
        let b = bias.map_or(0.0, |bv| bv[ch0 + r]);
        let row = &mut dst[r * spatial..(r + 1) * spatial];
        match epilogue {
            RowEpilogue::None => {
                for x in row {
                    *x += b;
                }
            }
            RowEpilogue::Relu => {
                for x in row {
                    *x = (*x + b).max(0.0);
                }
            }
            RowEpilogue::AddRelu(t) => {
                for (x, &tv) in row.iter_mut().zip(&t[r * spatial..(r + 1) * spatial]) {
                    *x = (*x + b + tv).max(0.0);
                }
            }
            RowEpilogue::ReluAdd(t) => {
                for (x, &tv) in row.iter_mut().zip(&t[r * spatial..(r + 1) * spatial]) {
                    *x = (*x + b).max(0.0) + tv;
                }
            }
        }
    }
}

/// Picks the output-row chunk size for forward pool dispatch over the
/// `[N*O, OH*OW]` row view: at least enough rows to clear the per-chunk
/// work floor, at most `max_threads` chunks.
fn conv_rows_per(total_rows: usize, flops_per_row: usize) -> usize {
    let min_rows = MIN_PAR_FLOPS
        .div_ceil(flops_per_row.max(1))
        .clamp(1, total_rows.max(1));
    total_rows.div_ceil(par::max_threads()).max(min_rows)
}

fn conv2d_forward_view(
    input: &Tensor,
    pv: &PackView<'_>,
    bias: Option<&Tensor>,
    stride: usize,
    pad: usize,
    epilogue: Epilogue<'_>,
) -> Result<Tensor> {
    let g = ConvGeom::validate(input, pv, stride, pad)?;
    check_conv_bias(bias, g.o)?;
    let out_dims = [g.n, g.o, g.oh, g.ow];
    epilogue.check(&out_dims)?;
    let mut out = Tensor::zeros(&out_dims);
    let spatial = g.spatial();
    let iv = input.as_slice();
    let bias_v = bias.map(Tensor::as_slice);
    // The fused-add operand shares the output's layout, so every
    // `[rows, OH*OW]` segment of it is addressable by the same row offsets.
    let epi_v = epilogue.operand().map(Tensor::as_slice);
    let rows_per = conv_rows_per(g.n * g.o, 2 * g.ckk() * spatial);
    // The kernels walk a sample's output channels in blocks of 8 and 4 from
    // its first channel, and a block rounds differently from the one-row
    // tail (FMA stencil, 4-tap updates). A chunk boundary inside a block
    // would re-block the rows after it and make them depend on the thread
    // count, so boundaries fall on a multiple of 8 channels within a sample
    // or on a sample boundary.
    let rows_per = if g.n == 1 || g.o % 8 == 0 {
        rows_per.next_multiple_of(8)
    } else {
        rows_per.next_multiple_of(g.o)
    };
    par::for_each_chunk_mut(
        out.as_mut_slice(),
        rows_per * spatial.max(1),
        |ci, chunk| {
            // A chunk is a span of output rows; split it at sample boundaries
            // so each segment reads exactly one sample.
            let mut row = ci * rows_per;
            let mut off = 0;
            while off < chunk.len() {
                let (ni, ch0) = (row / g.o.max(1), row % g.o.max(1));
                debug_assert_eq!(ch0 % PACK_MR, 0, "spans start on a panel block");
                let rows = (g.o - ch0).min((chunk.len() - off) / spatial.max(1));
                let sample = &iv[ni * g.in_sample()..(ni + 1) * g.in_sample()];
                let seg = row * spatial..(row + rows) * spatial;
                let row_epi = match (&epilogue, epi_v) {
                    (Epilogue::None, _) => RowEpilogue::None,
                    (Epilogue::Relu, _) => RowEpilogue::Relu,
                    (Epilogue::AddRelu(_), Some(ev)) => RowEpilogue::AddRelu(&ev[seg]),
                    (Epilogue::ReluAdd(_), Some(ev)) => RowEpilogue::ReluAdd(&ev[seg]),
                    _ => unreachable!("fused-add epilogues carry an operand"),
                };
                forward_sample_rows(
                    sample,
                    pv,
                    &g,
                    &mut chunk[off..off + rows * spatial],
                    ch0,
                    rows,
                    bias_v,
                    row_epi,
                );
                row += rows;
                off += rows * spatial.max(1);
            }
        },
    );
    Ok(out)
}

/// Fused forward over a cached [`PackedConv2dWeight`] — the steady-state
/// layer path: zero heap allocations beyond the returned tensor.
pub(crate) fn conv2d_forward_packed(
    input: &Tensor,
    packed: &PackedConv2dWeight,
    bias: Option<&Tensor>,
    stride: usize,
    pad: usize,
) -> Result<Tensor> {
    conv2d_forward_view(input, &packed.view(), bias, stride, pad, Epilogue::None)
}

/// [`conv2d_forward_packed`] with a fused bias + epilogue applied while the
/// output tiles are hot — the inference fast path.
pub(crate) fn conv2d_forward_packed_fused(
    input: &Tensor,
    packed: &PackedConv2dWeight,
    bias: Option<&Tensor>,
    stride: usize,
    pad: usize,
    epilogue: Epilogue<'_>,
) -> Result<Tensor> {
    conv2d_forward_view(input, &packed.view(), bias, stride, pad, epilogue)
}

/// Fused forward from a raw weight tensor: packs into the arena for this
/// one call (still allocation-free in steady state) and runs the same
/// engine.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv2d_forward(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    pad: usize,
) -> Result<Tensor> {
    let (_, c, _, _, o, kh, kw) = check_conv_shapes(input, weight)?;
    let ckk = c * kh * kw;
    let wv = weight.as_slice();
    let mut panels = arena::take_zeroed(packed_panel_len(o, ckk));
    pack_panels_into(wv, o, ckk, &mut panels);
    let mut transposed = arena::take(ckk * o);
    pack_transposed_into(wv, o, ckk, &mut transposed);
    let pv = PackView {
        weight: wv,
        panels: &panels,
        transposed: &transposed,
        o,
        c,
        kh,
        kw,
    };
    conv2d_forward_view(input, &pv, bias, stride, pad, Epilogue::None)
}

/// Backward kernel for the samples of one chunk. `gi_chunk` is the chunk's
/// `[samples, C*H*W]` grad-input span (zero-initialized), `gwt` the chunk's
/// `[C*KH*KW, O]` transposed weight-gradient accumulator, `gb` its `[O]`
/// bias accumulator (empty when the conv has no bias).
#[allow(clippy::too_many_arguments)]
fn backward_samples(
    first: usize,
    count: usize,
    gi_chunk: &mut [f32],
    gwt: &mut [f32],
    gb: &mut [f32],
    iv: &[f32],
    gv: &[f32],
    pv: &PackView<'_>,
    g: &ConvGeom,
) {
    let spatial = g.spatial();
    let ckk = g.ckk();
    let o = g.o;
    let ins = g.in_sample();
    let one_by_one_s1 = g.path() == ConvPath::MatmulOneByOne && g.stride == 1;
    for local in 0..count {
        let gi = &mut gi_chunk[local * ins..(local + 1) * ins];
        let ni = first + local;
        let sample = &iv[ni * g.in_sample()..(ni + 1) * g.in_sample()];
        let g_n = &gv[ni * g.out_sample()..(ni + 1) * g.out_sample()];
        if one_by_one_s1 {
            // col2im is the identity for 1×1/stride-1: the grad-input
            // sample *is* `Wᵀ @ g_n`, and the patch matrix for the
            // weight gradient is the input sample itself.
            kernel_rows(pv.transposed, g_n, gi, 0, g.c, o, spatial);
            let tile = PANEL_COLS.clamp(1, spatial.max(1));
            for t0 in (0..spatial).step_by(tile) {
                let t = (t0 + tile).min(spatial) - t0;
                let mut g_npt = arena::take(t * o);
                for oi in 0..o {
                    for tt in 0..t {
                        g_npt[tt * o + oi] = g_n[oi * spatial + t0 + tt];
                    }
                }
                // gwᵀ[c, o] += sample[:, t0..t0+t] @ g_npt
                kernel_rows_with(
                    |i, kk| sample[i * spatial + t0 + kk],
                    &g_npt,
                    gwt,
                    0,
                    g.c,
                    t,
                    o,
                );
            }
        } else {
            let tile_rows = g.tile_rows();
            for oh0 in (0..g.oh).step_by(tile_rows.max(1)) {
                let oh1 = (oh0 + tile_rows).min(g.oh);
                let t = (oh1 - oh0) * g.ow;
                let t0 = oh0 * g.ow;
                let mut panel = arena::take(ckk * t);
                im2col_panel(
                    sample, g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad, oh0, oh1, &mut panel,
                )
                .expect("conv geometry validated before dispatch");
                // Gather the grad-out panel `[O, t]` (contiguous row
                // segments) and its transpose `[t, O]`.
                let mut g_np = arena::take(o * t);
                for oi in 0..o {
                    g_np[oi * t..(oi + 1) * t]
                        .copy_from_slice(&g_n[oi * spatial + t0..oi * spatial + t0 + t]);
                }
                let mut g_npt = arena::take(t * o);
                transpose_pack_into(&g_np, o, t, &mut g_npt);
                // gwᵀ[ckk, o] += panel @ g_npᵀ — row-streaming, panel-local.
                kernel_rows(&panel, &g_npt, gwt, 0, ckk, t, o);
                // grad_cols panel = Wᵀ @ g_np (weight pre-transposed at
                // pack time), folded straight back into the sample.
                let mut gcols = arena::take_zeroed(ckk * t);
                kernel_rows(pv.transposed, &g_np, &mut gcols, 0, ckk, o, t);
                col2im_panel(
                    &gcols, gi, g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad, oh0, oh1,
                )
                .expect("conv geometry validated before dispatch");
            }
        }
        if !gb.is_empty() {
            for (oi, acc) in gb.iter_mut().enumerate() {
                let s: f32 = g_n[oi * spatial..(oi + 1) * spatial].iter().sum();
                *acc += s;
            }
        }
    }
}

fn conv2d_backward_view(
    input: &Tensor,
    pv: &PackView<'_>,
    grad_out: &Tensor,
    stride: usize,
    pad: usize,
    has_bias: bool,
) -> Result<Conv2dGrads> {
    let g = ConvGeom::validate(input, pv, stride, pad)?;
    let expected = [g.n, g.o, g.oh, g.ow];
    if grad_out.dims() != expected {
        return Err(TensorError::ShapeMismatch {
            expected: expected.to_vec(),
            got: grad_out.dims().to_vec(),
            op: "conv2d_backward (grad_out)",
        });
    }
    let ckk = g.ckk();
    let o = g.o;
    let mut grad_input = Tensor::zeros(&[g.n, g.c, g.h, g.w]);
    let mut grad_weight = Tensor::zeros(&[o, g.c, g.kh, g.kw]);
    let mut grad_bias = has_bias.then(|| Tensor::zeros(&[o]));
    let iv = input.as_slice();
    let gv = grad_out.as_slice();
    let gb_len = if has_bias { o } else { 0 };

    // Backward does ~2x the forward flops per output element; chunk over
    // whole samples so grad-input writes stay disjoint.
    let min_samples = MIN_PAR_FLOPS
        .div_ceil((4 * ckk * g.spatial() * o.max(1)).max(1))
        .clamp(1, g.n.max(1));
    let samples_per = g.n.div_ceil(par::max_threads()).max(min_samples);
    let parts = if grad_input.numel() == 0 {
        1
    } else {
        g.n.div_ceil(samples_per.max(1)).max(1)
    };

    // Per-chunk weight/bias partials live in the caller's arena and fold in
    // chunk order (deterministic for a fixed thread cap).
    let mut gwt_acc = arena::take_zeroed(ckk * o);
    let mut gb_acc = arena::take_zeroed(gb_len);
    if parts <= 1 {
        backward_samples(
            0,
            g.n,
            grad_input.as_mut_slice(),
            &mut gwt_acc,
            &mut gb_acc,
            iv,
            gv,
            pv,
            &g,
        );
    } else {
        let mut gw_parts: Vec<arena::Scratch> = (0..parts - 1)
            .map(|_| arena::take_zeroed(ckk * o))
            .collect();
        let mut gb_parts: Vec<arena::Scratch> =
            (0..parts - 1).map(|_| arena::take_zeroed(gb_len)).collect();
        {
            // (chunk index, grad-input span, gwᵀ partial, bias partial)
            type BwdItem<'a> = (usize, &'a mut [f32], &'a mut [f32], &'a mut [f32]);
            let mut items: Vec<BwdItem<'_>> = Vec::new();
            let mut gi_chunks = grad_input
                .as_mut_slice()
                .chunks_mut(samples_per * g.in_sample().max(1));
            let first_gi = gi_chunks.next().expect("at least one sample per part");
            items.push((0, first_gi, &mut gwt_acc, &mut gb_acc));
            for ((ci, gi), (gw, gb)) in gi_chunks
                .enumerate()
                .zip(gw_parts.iter_mut().zip(gb_parts.iter_mut()))
            {
                items.push((ci + 1, gi, gw, gb));
            }
            par::run(items, |_, (ci, gi, gw, gb)| {
                let count = gi.len() / g.in_sample().max(1);
                backward_samples(ci * samples_per, count, gi, gw, gb, iv, gv, pv, &g);
            });
        }
        for gw in &gw_parts {
            for (x, y) in gwt_acc.iter_mut().zip(gw.iter()) {
                *x += y;
            }
        }
        for gbp in &gb_parts {
            for (x, y) in gb_acc.iter_mut().zip(gbp.iter()) {
                *x += y;
            }
        }
    }

    // The accumulator holds gwᵀ `[ckk, o]`; write it transposed straight
    // into the `[O, C, KH, KW]` gradient tensor.
    let gw_out = grad_weight.as_mut_slice();
    for kk in 0..ckk {
        for i in 0..o {
            gw_out[i * ckk + kk] = gwt_acc[kk * o + i];
        }
    }
    if let Some(gb) = grad_bias.as_mut() {
        gb.as_mut_slice().copy_from_slice(&gb_acc);
    }
    Ok(Conv2dGrads {
        grad_input,
        grad_weight,
        grad_bias,
    })
}

/// Fused backward over a cached [`PackedConv2dWeight`] — the steady-state
/// layer path: zero heap allocations beyond the returned gradients.
pub(crate) fn conv2d_backward_packed(
    input: &Tensor,
    packed: &PackedConv2dWeight,
    grad_out: &Tensor,
    stride: usize,
    pad: usize,
    has_bias: bool,
) -> Result<Conv2dGrads> {
    conv2d_backward_view(input, &packed.view(), grad_out, stride, pad, has_bias)
}

/// Fused backward from a raw weight tensor (packs into the arena for this
/// one call).
pub(crate) fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    stride: usize,
    pad: usize,
    has_bias: bool,
) -> Result<Conv2dGrads> {
    let (_, c, _, _, o, kh, kw) = check_conv_shapes(input, weight)?;
    let ckk = c * kh * kw;
    let wv = weight.as_slice();
    let mut panels = arena::take_zeroed(packed_panel_len(o, ckk));
    pack_panels_into(wv, o, ckk, &mut panels);
    let mut transposed = arena::take(ckk * o);
    pack_transposed_into(wv, o, ckk, &mut transposed);
    let pv = PackView {
        weight: wv,
        panels: &panels,
        transposed: &transposed,
        o,
        c,
        kh,
        kw,
    };
    conv2d_backward_view(input, &pv, grad_out, stride, pad, has_bias)
}

// ---------------------------------------------------------------------------
// Depthwise convolution: per-channel kernels, no cross-channel GEMM.
//
// A depthwise conv's patch matrix would be block-diagonal — im2col wastes
// C× its bandwidth materializing zeros — so the engine never unfolds:
// each `(sample, channel)` output plane is one stencil over its own input
// plane, chunked across the pool like the dense forward's output tiles.
// ---------------------------------------------------------------------------

/// One-pass 3×3 / stride 1 / pad 1 depthwise plane: `dst` (`[H, W]`) from
/// one input plane and its 9 taps, with the bias and `epi` applied before
/// the single store of each output. The plane is first copied into
/// `padded`, a `(H + 2) × (W + 2)` scratch whose zero border stands in for
/// the padding (only the interior is written, so the border stays zero
/// across planes). Each output accumulates its nine taps from a fresh
/// `+0.0` in `ki → kj` order with separate multiplies and adds — the naive
/// oracle's arithmetic, never FMA. A border tap adds `w·0.0 = ±0.0`, which
/// leaves such an accumulator unchanged (it is never `-0.0`), so for finite
/// taps the result equals the oracle's, which skips those taps, bit for
/// bit. For the same reason `acc + b` equals the unfused sweep's
/// `if b != 0.0 { acc += b }`.
fn dw3x3_plane(
    src: &[f32],
    taps: &[f32],
    padded: &mut [f32],
    dst: &mut [f32],
    (h, w): (usize, usize),
    b: f32,
    epi: RowEpilogue<'_>,
) {
    let pitch = w + 2;
    for i in 0..h {
        padded[(i + 1) * pitch + 1..][..w].copy_from_slice(&src[i * w..(i + 1) * w]);
    }
    let t: &[f32; 9] = taps.try_into().expect("3x3 taps");
    let (padded, dst) = (&padded[..(h + 2) * pitch], &mut dst[..h * w]);
    if let RowEpilogue::AddRelu(o) | RowEpilogue::ReluAdd(o) = epi {
        assert!(o.len() >= h * w, "fused-add operand spans the plane");
    }
    // Rows narrower than one 8-lane vector take the portable loop. (LLVM
    // does not vectorize the portable loop on the 8- and 16-wide rows of
    // the deployed planes, hence the explicit kernel.)
    #[cfg(target_arch = "x86_64")]
    if w >= 8 && have_avx2() {
        // SAFETY: AVX2 verified; `padded` holds `(h + 2) * (w + 2)` and
        // `dst` `h * w` elements, `w >= 8`, and the fused-add operand spans
        // `h * w` (asserted above).
        #[allow(unsafe_code)]
        unsafe {
            dw3x3_avx2::plane(padded, dst, (h, w), t, b, epi);
        }
        return;
    }
    for i in 0..h {
        let rows = &padded[i * pitch..(i + 3) * pitch];
        for j in 0..w {
            let mut acc = 0.0f32;
            for ki in 0..3 {
                for kj in 0..3 {
                    acc += t[ki * 3 + kj] * rows[ki * pitch + j + kj];
                }
            }
            dst[i * w + j] = epi.apply(acc + b, i * w + j);
        }
    }
}

/// AVX2 row kernel of [`dw3x3_plane`]: 8 outputs per step, the nine taps
/// broadcast in registers, `vmulps` then `vaddps` per tap in `ki → kj`
/// order (the portable loop's rounding, lane by lane), the epilogue fused
/// before the store. A row's last step overlaps the previous one when `W`
/// is not a multiple of 8; it recomputes the same values.
#[cfg(target_arch = "x86_64")]
mod dw3x3_avx2 {
    #![allow(unsafe_code)]

    use std::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };

    use super::RowEpilogue;

    /// # Safety
    ///
    /// Requires AVX2. `padded` must hold `(h + 2) * (w + 2)` elements,
    /// `dst` `h * w`, a fused-add operand in `epi` at least `h * w`, and
    /// `w >= 8`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn plane(
        padded: &[f32],
        dst: &mut [f32],
        (h, w): (usize, usize),
        t: &[f32; 9],
        b: f32,
        epi: RowEpilogue<'_>,
    ) {
        // SAFETY: per the function contract, every 8-lane load reads
        // `padded[(i + ki) * (w + 2) + j0 + kj..][..8]` with
        // `j0 + kj + 8 <= w + 2`, and every store / operand load covers
        // `[i * w + j0..][..8]` with `j0 + 8 <= w`.
        unsafe {
            let pitch = w + 2;
            let zero = _mm256_setzero_ps();
            let bv = _mm256_set1_ps(b);
            let mut tv = [zero; 9];
            for (v, &x) in tv.iter_mut().zip(t) {
                *v = _mm256_set1_ps(x);
            }
            for i in 0..h {
                let p = padded.as_ptr().add(i * pitch);
                let d = dst.as_mut_ptr().add(i * w);
                let mut j = 0;
                loop {
                    let j0 = j.min(w - 8);
                    let mut acc: __m256 = zero;
                    for ki in 0..3 {
                        for kj in 0..3 {
                            let x = _mm256_loadu_ps(p.add(ki * pitch + j0 + kj));
                            acc = _mm256_add_ps(acc, _mm256_mul_ps(tv[ki * 3 + kj], x));
                        }
                    }
                    let v = epi.apply8(_mm256_add_ps(acc, bv), i * w + j0);
                    _mm256_storeu_ps(d.add(j0), v);
                    if j0 + 8 >= w {
                        break;
                    }
                    j += 8;
                }
            }
        }
    }
}

/// One depthwise output plane: `dst` (`[OH, OW]`, zero-initialized) from one
/// input plane and that channel's `[KH, KW]` taps, for every geometry but
/// the one-pass 3×3 / stride 1 / pad 1 ([`dw3x3_plane`]). Shape-dispatches
/// to the shifted row-axpy stencils where they exist; per output element
/// the adds land in `ki → kj` order, matching the naive oracle.
#[allow(clippy::too_many_arguments)]
fn depthwise_plane_forward(
    src: &[f32],
    taps: &[f32],
    dst: &mut [f32],
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) {
    if kh == 3 && kw == 3 && pad == 1 {
        for ki in 0..3usize {
            let (w0, w1, w2) = (taps[3 * ki], taps[3 * ki + 1], taps[3 * ki + 2]);
            for ohi in 0..oh {
                let ih = (ohi * stride + ki) as isize - 1;
                if ih < 0 || ih >= h as isize {
                    continue;
                }
                let in_row = &src[ih as usize * w..(ih as usize + 1) * w];
                let dst_row = &mut dst[ohi * ow..(ohi + 1) * ow];
                axpy_shift3_strided(dst_row, in_row, w0, w1, w2, stride);
            }
        }
        return;
    }
    if kh == 5 && kw == 5 && stride == 1 && pad == 2 {
        for ki in 0..5usize {
            let mut t5 = [0.0f32; 5];
            t5.copy_from_slice(&taps[5 * ki..5 * ki + 5]);
            let lo = 2usize.saturating_sub(ki);
            let hi = (h + 2).saturating_sub(ki).min(h);
            for ohi in lo..hi {
                let ih = ohi + ki - 2;
                axpy_shift5(
                    &mut dst[ohi * w..(ohi + 1) * w],
                    &src[ih * w..(ih + 1) * w],
                    &t5,
                );
            }
        }
        return;
    }
    // Generic geometry: direct per-element taps, still unfold-free.
    for ohi in 0..oh {
        for owi in 0..ow {
            let mut acc = 0.0f32;
            for ki in 0..kh {
                let ih = (ohi * stride + ki) as isize - pad as isize;
                if ih < 0 || ih >= h as isize {
                    continue;
                }
                let in_row = &src[ih as usize * w..(ih as usize + 1) * w];
                for kj in 0..kw {
                    let iw = (owi * stride + kj) as isize - pad as isize;
                    if iw < 0 || iw >= w as isize {
                        continue;
                    }
                    acc += taps[ki * kw + kj] * in_row[iw as usize];
                }
            }
            dst[ohi * ow + owi] = acc;
        }
    }
}

/// Depthwise forward with fused bias + epilogue: input `[N, C, H, W]`,
/// weight `[C, 1, KH, KW]`, output `[N, C, OH, OW]`. Pool-chunked over
/// `(sample, channel)` output planes.
pub(crate) fn conv2d_depthwise_forward(
    input: &Tensor,
    packed: &PackedConv2dWeight,
    bias: Option<&Tensor>,
    stride: usize,
    pad: usize,
    epilogue: Epilogue<'_>,
) -> Result<Tensor> {
    let weight = packed.weight();
    let (n, c, h, w, kh, kw) = check_depthwise_shapes(input, weight)?;
    let oh = conv_output_size(h, kh, stride, pad)?;
    let ow = conv_output_size(w, kw, stride, pad)?;
    check_conv_bias(bias, c)?;
    let out_dims = [n, c, oh, ow];
    epilogue.check(&out_dims)?;
    let mut out = Tensor::zeros(&out_dims);
    let spatial = oh * ow;
    let iv = input.as_slice();
    let wv = weight.as_slice();
    let bias_v = bias.map(Tensor::as_slice);
    let epi_v = epilogue.operand().map(Tensor::as_slice);
    let planes_per = conv_rows_per(n * c, 2 * spatial * kh * kw);
    // The deployed geometry runs in one pass with its epilogue fused; the
    // others sweep per kernel row, then apply the epilogue.
    let one_pass = kh == 3 && kw == 3 && stride == 1 && pad == 1;
    par::for_each_chunk_mut(
        out.as_mut_slice(),
        planes_per * spatial.max(1),
        |ci, chunk| {
            let mut padded = arena::take_zeroed(if one_pass { (h + 2) * (w + 2) } else { 0 });
            let mut plane = ci * planes_per;
            let mut off = 0;
            while off + spatial <= chunk.len() && spatial > 0 {
                let ch = plane % c.max(1);
                let src = &iv[plane * h * w..(plane + 1) * h * w];
                let taps = &wv[ch * kh * kw..(ch + 1) * kh * kw];
                let dst = &mut chunk[off..off + spatial];
                let b = bias_v.map_or(0.0, |bv| bv[ch]);
                let span = plane * spatial..(plane + 1) * spatial;
                plane += 1;
                off += spatial;
                let row_epi = match (&epilogue, epi_v) {
                    (Epilogue::None, _) => RowEpilogue::None,
                    (Epilogue::Relu, _) => RowEpilogue::Relu,
                    (Epilogue::AddRelu(_), Some(ev)) => RowEpilogue::AddRelu(&ev[span]),
                    (Epilogue::ReluAdd(_), Some(ev)) => RowEpilogue::ReluAdd(&ev[span]),
                    _ => unreachable!("fused-add epilogues carry an operand"),
                };
                if one_pass {
                    dw3x3_plane(src, taps, &mut padded, dst, (h, w), b, row_epi);
                    continue;
                }
                depthwise_plane_forward(src, taps, dst, h, w, oh, ow, kh, kw, stride, pad);
                // A zero bias changes nothing here either: the sweep's
                // accumulators start at +0.0, so they are never -0.0.
                for (k, x) in dst.iter_mut().enumerate() {
                    *x = row_epi.apply(*x + b, k);
                }
            }
        },
    );
    Ok(out)
}

/// Depthwise backward kernel for the samples of one chunk: `gi_chunk` is the
/// chunk's `[samples, C*H*W]` grad-input span (zero-initialized), `gw` the
/// chunk's `[C*KH*KW]` weight-gradient accumulator, `gb` its `[C]` bias
/// accumulator (empty when the conv has no bias).
#[allow(clippy::too_many_arguments)]
fn depthwise_backward_samples(
    first: usize,
    count: usize,
    gi_chunk: &mut [f32],
    gw: &mut [f32],
    gb: &mut [f32],
    iv: &[f32],
    gv: &[f32],
    wv: &[f32],
    dims: (
        usize,
        usize,
        usize,
        usize,
        usize,
        usize,
        usize,
        usize,
        usize,
    ),
) {
    let (c, h, w, oh, ow, kh, kw, stride, pad) = dims;
    let spatial = oh * ow;
    for local in 0..count {
        let ni = first + local;
        for ch in 0..c {
            let src = &iv[(ni * c + ch) * h * w..(ni * c + ch + 1) * h * w];
            let g_p = &gv[(ni * c + ch) * spatial..(ni * c + ch + 1) * spatial];
            let gi_p = &mut gi_chunk[(local * c + ch) * h * w..(local * c + ch + 1) * h * w];
            let taps = &wv[ch * kh * kw..(ch + 1) * kh * kw];
            let gw_c = &mut gw[ch * kh * kw..(ch + 1) * kh * kw];
            for ohi in 0..oh {
                for owi in 0..ow {
                    let g = g_p[ohi * ow + owi];
                    if g == 0.0 {
                        continue;
                    }
                    for ki in 0..kh {
                        let ih = (ohi * stride + ki) as isize - pad as isize;
                        if ih < 0 || ih >= h as isize {
                            continue;
                        }
                        for kj in 0..kw {
                            let iw = (owi * stride + kj) as isize - pad as isize;
                            if iw < 0 || iw >= w as isize {
                                continue;
                            }
                            let idx = ih as usize * w + iw as usize;
                            gi_p[idx] += taps[ki * kw + kj] * g;
                            gw_c[ki * kw + kj] += src[idx] * g;
                        }
                    }
                }
            }
            if !gb.is_empty() {
                let s: f32 = g_p.iter().sum();
                gb[ch] += s;
            }
        }
    }
}

/// Depthwise backward: grad-input `[N, C, H, W]`, grad-weight
/// `[C, 1, KH, KW]`, optional grad-bias `[C]`. Chunked over whole samples;
/// per-chunk weight/bias partials fold in chunk order.
pub(crate) fn conv2d_depthwise_backward(
    input: &Tensor,
    packed: &PackedConv2dWeight,
    grad_out: &Tensor,
    stride: usize,
    pad: usize,
    has_bias: bool,
) -> Result<Conv2dGrads> {
    let weight = packed.weight();
    let (n, c, h, w, kh, kw) = check_depthwise_shapes(input, weight)?;
    let oh = conv_output_size(h, kh, stride, pad)?;
    let ow = conv_output_size(w, kw, stride, pad)?;
    let expected = [n, c, oh, ow];
    if grad_out.dims() != expected {
        return Err(TensorError::ShapeMismatch {
            expected: expected.to_vec(),
            got: grad_out.dims().to_vec(),
            op: "conv2d_depthwise_backward (grad_out)",
        });
    }
    let mut grad_input = Tensor::zeros(&[n, c, h, w]);
    let mut grad_weight = Tensor::zeros(&[c, 1, kh, kw]);
    let mut grad_bias = has_bias.then(|| Tensor::zeros(&[c]));
    let iv = input.as_slice();
    let gv = grad_out.as_slice();
    let wv = weight.as_slice();
    let gb_len = if has_bias { c } else { 0 };
    let dims = (c, h, w, oh, ow, kh, kw, stride, pad);
    let in_sample = c * h * w;

    let min_samples = MIN_PAR_FLOPS
        .div_ceil((4 * c * oh * ow * kh * kw).max(1))
        .clamp(1, n.max(1));
    let samples_per = n.div_ceil(par::max_threads()).max(min_samples);
    let parts = if grad_input.numel() == 0 {
        1
    } else {
        n.div_ceil(samples_per.max(1)).max(1)
    };

    let mut gw_acc = arena::take_zeroed(c * kh * kw);
    let mut gb_acc = arena::take_zeroed(gb_len);
    if parts <= 1 {
        depthwise_backward_samples(
            0,
            n,
            grad_input.as_mut_slice(),
            &mut gw_acc,
            &mut gb_acc,
            iv,
            gv,
            wv,
            dims,
        );
    } else {
        let mut gw_parts: Vec<arena::Scratch> = (0..parts - 1)
            .map(|_| arena::take_zeroed(c * kh * kw))
            .collect();
        let mut gb_parts: Vec<arena::Scratch> =
            (0..parts - 1).map(|_| arena::take_zeroed(gb_len)).collect();
        {
            type BwdItem<'a> = (usize, &'a mut [f32], &'a mut [f32], &'a mut [f32]);
            let mut items: Vec<BwdItem<'_>> = Vec::new();
            let mut gi_chunks = grad_input
                .as_mut_slice()
                .chunks_mut(samples_per * in_sample.max(1));
            let first_gi = gi_chunks.next().expect("at least one sample per part");
            items.push((0, first_gi, &mut gw_acc, &mut gb_acc));
            for ((ci, gi), (gw, gb)) in gi_chunks
                .enumerate()
                .zip(gw_parts.iter_mut().zip(gb_parts.iter_mut()))
            {
                items.push((ci + 1, gi, gw, gb));
            }
            par::run(items, |_, (ci, gi, gw, gb)| {
                let count = gi.len() / in_sample.max(1);
                depthwise_backward_samples(ci * samples_per, count, gi, gw, gb, iv, gv, wv, dims);
            });
        }
        for gw in &gw_parts {
            for (x, y) in gw_acc.iter_mut().zip(gw.iter()) {
                *x += y;
            }
        }
        for gbp in &gb_parts {
            for (x, y) in gb_acc.iter_mut().zip(gbp.iter()) {
                *x += y;
            }
        }
    }

    grad_weight.as_mut_slice().copy_from_slice(&gw_acc);
    if let Some(gb) = grad_bias.as_mut() {
        gb.as_mut_slice().copy_from_slice(&gb_acc);
    }
    Ok(Conv2dGrads {
        grad_input,
        grad_weight,
        grad_bias,
    })
}

// ---------------------------------------------------------------------------
// Elementwise
// ---------------------------------------------------------------------------

fn zip_mut(a: &mut Tensor, b: &Tensor, f: impl Fn(&mut f32, f32) + Sync) {
    let len = a.numel();
    let bv = b.as_slice();
    if len < MIN_PAR_ELEMS {
        for (x, &y) in a.as_mut_slice().iter_mut().zip(bv) {
            f(x, y);
        }
        return;
    }
    let chunk = elem_chunk(len);
    par::for_each_chunk_mut(a.as_mut_slice(), chunk, |ci, ca| {
        let off = ci * chunk;
        let end = off + ca.len();
        for (x, &y) in ca.iter_mut().zip(&bv[off..end]) {
            f(x, y);
        }
    });
}

pub(crate) fn add(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    a.expect_same_shape(b, "add")?;
    let mut out = a.clone();
    zip_mut(&mut out, b, |x, y| *x += y);
    Ok(out)
}

pub(crate) fn sub(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    a.expect_same_shape(b, "sub")?;
    let mut out = a.clone();
    zip_mut(&mut out, b, |x, y| *x -= y);
    Ok(out)
}

pub(crate) fn hadamard(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    a.expect_same_shape(b, "hadamard")?;
    let mut out = a.clone();
    zip_mut(&mut out, b, |x, y| *x *= y);
    Ok(out)
}

pub(crate) fn add_assign(a: &mut Tensor, b: &Tensor) -> Result<()> {
    a.expect_same_shape(b, "add_assign")?;
    zip_mut(a, b, |x, y| *x += y);
    Ok(())
}

pub(crate) fn add_scaled(a: &mut Tensor, b: &Tensor, alpha: f32) -> Result<()> {
    a.expect_same_shape(b, "add_scaled")?;
    zip_mut(a, b, |x, y| *x += alpha * y);
    Ok(())
}

pub(crate) fn scale(a: &Tensor, alpha: f32) -> Tensor {
    unary(a, &|x| alpha * x)
}

pub(crate) fn unary(a: &Tensor, f: &(dyn Fn(f32) -> f32 + Sync)) -> Tensor {
    let len = a.numel();
    if len < MIN_PAR_ELEMS {
        return a.map(f);
    }
    let mut out = a.clone();
    let chunk = elem_chunk(len);
    par::for_each_chunk_mut(out.as_mut_slice(), chunk, |_ci, ca| {
        for x in ca.iter_mut() {
            *x = f(*x);
        }
    });
    out
}

pub(crate) fn add_bias_rows(out: &mut Tensor, bias: &Tensor) -> Result<()> {
    let (n, d) = check_bias_rows(out, bias)?;
    let bv = bias.as_slice();
    if n * d < MIN_PAR_ELEMS {
        return crate::ops::elementwise::add_bias_rows_naive(out, bias);
    }
    let rows_per = n
        .div_ceil(par::max_threads())
        .max(CHUNK_ELEMS.div_ceil(d.max(1)));
    par::for_each_chunk_mut(out.as_mut_slice(), rows_per * d.max(1), |_ci, chunk| {
        for row in chunk.chunks_mut(d.max(1)) {
            for (x, &b) in row.iter_mut().zip(bv) {
                *x += b;
            }
        }
    });
    Ok(())
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

pub(crate) fn channel_mean_var(input: &Tensor) -> Result<(Tensor, Tensor)> {
    let (n, c, h, w) = check_nchw(input, "channel_mean_var")?;
    let count = n * h * w;
    if count == 0 {
        return Err(TensorError::InvalidGeometry {
            reason: "cannot compute channel statistics over an empty batch".into(),
        });
    }
    if n * c * h * w < MIN_PAR_ELEMS {
        return crate::ops::reduce::channel_mean_var_naive(input);
    }
    let plane = h * w;
    let mut mean = Tensor::zeros(&[c]);
    let mut var = Tensor::zeros(&[c]);
    let iv = input.as_slice();
    let channels_per = c.div_ceil(par::max_threads()).max(1);
    par::for_each_chunk_mut2(
        mean.as_mut_slice(),
        var.as_mut_slice(),
        channels_per,
        channels_per,
        |chunk_i, mc, vc| {
            let c0 = chunk_i * channels_per;
            for (local, (m_out, v_out)) in mc.iter_mut().zip(vc.iter_mut()).enumerate() {
                let ci = c0 + local;
                let mut s = 0.0f64;
                for ni in 0..n {
                    let base = (ni * c + ci) * plane;
                    for &x in &iv[base..base + plane] {
                        s += x as f64;
                    }
                }
                let m = (s / count as f64) as f32;
                *m_out = m;
                let mut v = 0.0f64;
                for ni in 0..n {
                    let base = (ni * c + ci) * plane;
                    for &x in &iv[base..base + plane] {
                        let d = x - m;
                        v += (d * d) as f64;
                    }
                }
                *v_out = (v / count as f64) as f32;
            }
        },
    );
    Ok((mean, var))
}

pub(crate) fn channel_sum(input: &Tensor) -> Result<Tensor> {
    let (n, c, h, w) = check_nchw(input, "channel_sum")?;
    if n * c * h * w < MIN_PAR_ELEMS {
        return crate::ops::reduce::channel_sum_naive(input);
    }
    let plane = h * w;
    let mut out = Tensor::zeros(&[c]);
    let iv = input.as_slice();
    let channels_per = c.div_ceil(par::max_threads()).max(1);
    par::for_each_chunk_mut(out.as_mut_slice(), channels_per, |chunk_i, oc| {
        let c0 = chunk_i * channels_per;
        for (local, o) in oc.iter_mut().enumerate() {
            let ci = c0 + local;
            let mut s = 0.0f32;
            for ni in 0..n {
                let base = (ni * c + ci) * plane;
                s += iv[base..base + plane].iter().sum::<f32>();
            }
            *o = s;
        }
    });
    Ok(out)
}

pub(crate) fn sum_axis0(input: &Tensor) -> Result<Tensor> {
    if input.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            got: input.rank(),
            op: "sum_axis0",
        });
    }
    let (n, d) = (input.dim(0), input.dim(1));
    if n * d < MIN_PAR_ELEMS {
        return crate::ops::reduce::sum_axis0_naive(input);
    }
    let mut out = Tensor::zeros(&[d]);
    let iv = input.as_slice();
    let cols_per = d.div_ceil(par::max_threads()).max(1);
    par::for_each_chunk_mut(out.as_mut_slice(), cols_per, |chunk_i, oc| {
        let d0 = chunk_i * cols_per;
        for ni in 0..n {
            let row = &iv[ni * d + d0..ni * d + d0 + oc.len()];
            for (o, &x) in oc.iter_mut().zip(row) {
                *o += x;
            }
        }
    });
    Ok(out)
}

pub(crate) fn softmax_rows(logits: &Tensor) -> Result<Tensor> {
    if logits.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            got: logits.rank(),
            op: "softmax_rows",
        });
    }
    let (n, d) = (logits.dim(0), logits.dim(1));
    if n * d < MIN_PAR_ELEMS {
        return crate::ops::reduce::softmax_rows_naive(logits);
    }
    let mut out = logits.clone();
    let rows_per = n.div_ceil(par::max_threads()).max(1);
    par::for_each_chunk_mut(out.as_mut_slice(), rows_per * d.max(1), |_ci, chunk| {
        for row in chunk.chunks_mut(d.max(1)) {
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for x in row.iter_mut() {
                *x = (*x - max).exp();
                sum += *x;
            }
            let inv = 1.0 / sum;
            for x in row.iter_mut() {
                *x *= inv;
            }
        }
    });
    Ok(out)
}

// ---------------------------------------------------------------------------
// BatchNorm channel kernels (sample-chunked elementwise, channel reductions)
// ---------------------------------------------------------------------------

/// Runs `f(plane_range_start_channel, sample_chunk)` over whole-sample chunks
/// of `data` (`[N, C, H, W]` flattened), passing the first sample index.
fn for_sample_chunks(data: &mut [f32], sample_len: usize, f: impl Fn(usize, &mut [f32]) + Sync) {
    let n = data.len().checked_div(sample_len).unwrap_or(0);
    let samples_per = n.div_ceil(par::max_threads()).max(1);
    par::for_each_chunk_mut(data, samples_per * sample_len.max(1), |ci, chunk| {
        f(ci * samples_per, chunk);
    });
}

pub(crate) fn bn_normalize(input: &Tensor, mean: &Tensor, inv_std: &Tensor) -> Result<Tensor> {
    let (n, c, h, w) = check_nchw(input, "bn_normalize")?;
    check_channel_vec(mean, c, "bn_normalize (mean)")?;
    check_channel_vec(inv_std, c, "bn_normalize (inv_std)")?;
    if n * c * h * w < MIN_PAR_ELEMS {
        return crate::ops::channel::bn_normalize_naive(input, mean, inv_std);
    }
    let plane = h * w;
    let mut out = input.clone();
    let mv = mean.as_slice();
    let sv = inv_std.as_slice();
    for_sample_chunks(out.as_mut_slice(), c * plane, |_first, chunk| {
        for sample in chunk.chunks_mut(c * plane) {
            for (ci, ch) in sample.chunks_mut(plane).enumerate() {
                let m = mv[ci];
                let is = sv[ci];
                for x in ch.iter_mut() {
                    *x = (*x - m) * is;
                }
            }
        }
    });
    Ok(out)
}

pub(crate) fn channel_affine(input: &Tensor, scale: &Tensor, shift: &Tensor) -> Result<Tensor> {
    let (n, c, h, w) = check_nchw(input, "channel_affine")?;
    check_channel_vec(scale, c, "channel_affine (scale)")?;
    check_channel_vec(shift, c, "channel_affine (shift)")?;
    if n * c * h * w < MIN_PAR_ELEMS {
        return crate::ops::channel::channel_affine_naive(input, scale, shift);
    }
    let plane = h * w;
    let mut out = input.clone();
    let g = scale.as_slice();
    let b = shift.as_slice();
    for_sample_chunks(out.as_mut_slice(), c * plane, |_first, chunk| {
        for sample in chunk.chunks_mut(c * plane) {
            for (ci, ch) in sample.chunks_mut(plane).enumerate() {
                for x in ch.iter_mut() {
                    *x = g[ci] * *x + b[ci];
                }
            }
        }
    });
    Ok(out)
}

pub(crate) fn bn_backward_reduce(grad_out: &Tensor, x_hat: &Tensor) -> Result<(Tensor, Tensor)> {
    let (n, c, h, w) = check_nchw(grad_out, "bn_backward_reduce")?;
    grad_out.expect_same_shape(x_hat, "bn_backward_reduce")?;
    if n * c * h * w < MIN_PAR_ELEMS {
        return crate::ops::channel::bn_backward_reduce_naive(grad_out, x_hat);
    }
    let plane = h * w;
    let mut sum_dy = Tensor::zeros(&[c]);
    let mut sum_dy_xhat = Tensor::zeros(&[c]);
    let gv = grad_out.as_slice();
    let xv = x_hat.as_slice();
    let channels_per = c.div_ceil(par::max_threads()).max(1);
    par::for_each_chunk_mut2(
        sum_dy.as_mut_slice(),
        sum_dy_xhat.as_mut_slice(),
        channels_per,
        channels_per,
        |chunk_i, dc, dxc| {
            let c0 = chunk_i * channels_per;
            for (local, (d_out, dx_out)) in dc.iter_mut().zip(dxc.iter_mut()).enumerate() {
                let ci = c0 + local;
                for ni in 0..n {
                    let base = (ni * c + ci) * plane;
                    let mut s = 0.0f32;
                    let mut sx = 0.0f32;
                    for off in base..base + plane {
                        s += gv[off];
                        sx += gv[off] * xv[off];
                    }
                    *d_out += s;
                    *dx_out += sx;
                }
            }
        },
    );
    Ok((sum_dy, sum_dy_xhat))
}

pub(crate) fn bn_input_grad(
    grad_out: &Tensor,
    x_hat: &Tensor,
    gamma: &Tensor,
    inv_std: &Tensor,
    sum_dy: &Tensor,
    sum_dy_xhat: &Tensor,
) -> Result<Tensor> {
    let (n, c, h, w) = check_nchw(grad_out, "bn_input_grad")?;
    grad_out.expect_same_shape(x_hat, "bn_input_grad")?;
    check_channel_vec(gamma, c, "bn_input_grad (gamma)")?;
    check_channel_vec(inv_std, c, "bn_input_grad (inv_std)")?;
    check_channel_vec(sum_dy, c, "bn_input_grad (sum_dy)")?;
    check_channel_vec(sum_dy_xhat, c, "bn_input_grad (sum_dy_xhat)")?;
    if n * c * h * w < MIN_PAR_ELEMS {
        return crate::ops::channel::bn_input_grad_naive(
            grad_out,
            x_hat,
            gamma,
            inv_std,
            sum_dy,
            sum_dy_xhat,
        );
    }
    let plane = h * w;
    let count = (n * plane) as f32;
    let mut grad_in = grad_out.clone();
    let xv = x_hat.as_slice();
    let g = gamma.as_slice();
    let is = inv_std.as_slice();
    let dv = sum_dy.as_slice();
    let dxv = sum_dy_xhat.as_slice();
    let sample_len = c * plane;
    let samples_per = n.div_ceil(par::max_threads()).max(1);
    par::for_each_chunk_mut(
        grad_in.as_mut_slice(),
        samples_per * sample_len.max(1),
        |ci, chunk| {
            let first = ci * samples_per;
            for (local, sample) in chunk.chunks_mut(sample_len).enumerate() {
                let ni = first + local;
                for (cidx, ch) in sample.chunks_mut(plane).enumerate() {
                    let mean_dy = dv[cidx] / count;
                    let mean_dy_xhat = dxv[cidx] / count;
                    let scale = g[cidx] * is[cidx];
                    let base = (ni * c + cidx) * plane;
                    for (off, x) in ch.iter_mut().enumerate() {
                        *x = scale * (*x - mean_dy - xv[base + off] * mean_dy_xhat);
                    }
                }
            }
        },
    );
    Ok(grad_in)
}

// ---------------------------------------------------------------------------
// Pooling
// ---------------------------------------------------------------------------

pub(crate) fn maxpool2d_forward(input: &Tensor, k: usize) -> Result<(Tensor, MaxPoolIndices)> {
    let (n, c, h, w) = check_nchw(input, "maxpool2d")?;
    let oh = conv_output_size(h, k, k, 0)?;
    let ow = conv_output_size(w, k, k, 0)?;
    if n * c * h * w < MIN_PAR_ELEMS {
        return crate::ops::pool::maxpool2d_forward_naive(input, k);
    }
    let planes = n * c;
    let out_plane = oh * ow;
    let mut out = Tensor::zeros(&[n, c, oh, ow]);
    let mut winners = vec![0usize; planes * out_plane];
    let iv = input.as_slice();
    let planes_per = planes.div_ceil(par::max_threads()).max(1);
    par::for_each_chunk_mut2(
        out.as_mut_slice(),
        &mut winners,
        planes_per * out_plane.max(1),
        planes_per * out_plane.max(1),
        |chunk_i, oc, wc| {
            let p0 = chunk_i * planes_per;
            for (local, (op, wp)) in oc
                .chunks_mut(out_plane.max(1))
                .zip(wc.chunks_mut(out_plane.max(1)))
                .enumerate()
            {
                let plane_base = (p0 + local) * h * w;
                let mut oidx = 0usize;
                for ohi in 0..oh {
                    for owi in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_off = plane_base;
                        for ki in 0..k {
                            let ih = ohi * k + ki;
                            for kj in 0..k {
                                let iw = owi * k + kj;
                                let off = plane_base + ih * w + iw;
                                if iv[off] > best {
                                    best = iv[off];
                                    best_off = off;
                                }
                            }
                        }
                        op[oidx] = best;
                        wp[oidx] = best_off;
                        oidx += 1;
                    }
                }
            }
        },
    );
    Ok((
        out,
        MaxPoolIndices {
            winners,
            input_dims: vec![n, c, h, w],
        },
    ))
}

/// Row-pair 2×2 / stride 2 max-pool over whole planes: `dst` holds the
/// pooled `[H/2, W/2]` planes of the `[H, W]` planes at the start of `src`.
/// Each output takes the naive loop's exact chain
/// `NEG_INFINITY.max(x00).max(x01).max(x10).max(x11)` (`ki → kj` order), so
/// NaN, ±Inf and ±0 inputs give the same bits; a pairwise tree or
/// `_mm256_max_ps` would not, as their NaN rules differ. An odd last row or
/// column is dropped, as in the naive loop. Codegens twice (baseline +
/// AVX2); call through [`maxpool2x2_planes`].
#[inline(always)]
fn maxpool2x2_planes_body(src: &[f32], dst: &mut [f32], h: usize, w: usize) {
    let (oh, ow) = (h / 2, w / 2);
    for (plane, out) in src.chunks_exact(h * w).zip(dst.chunks_exact_mut(oh * ow)) {
        for (i, o_row) in out.chunks_exact_mut(ow).enumerate() {
            let r0 = &plane[2 * i * w..][..2 * ow];
            let r1 = &plane[(2 * i + 1) * w..][..2 * ow];
            for ((o, a), b) in o_row
                .iter_mut()
                .zip(r0.chunks_exact(2))
                .zip(r1.chunks_exact(2))
            {
                *o = f32::NEG_INFINITY.max(a[0]).max(a[1]).max(b[0]).max(b[1]);
            }
        }
    }
}

simd_dispatch!(fn maxpool2x2_planes / maxpool2x2_planes_avx2 / maxpool2x2_planes_body
<>(src: &[f32], dst: &mut [f32], h: usize, w: usize));

/// Inference max pooling: no argmax bookkeeping, so the only allocation is
/// the pooled output tensor (the training variant also builds a
/// full-output-size winner index). The 2×2 window runs the row-pair kernel
/// inline below [`MIN_PAR_POOL2_ELEMS`] and chunked above it; other windows
/// keep the per-element loop.
pub(crate) fn maxpool2d_eval(input: &Tensor, k: usize) -> Result<Tensor> {
    let (n, c, h, w) = check_nchw(input, "maxpool2d")?;
    let oh = conv_output_size(h, k, k, 0)?;
    let ow = conv_output_size(w, k, k, 0)?;
    let elems = n * c * h * w;
    if k != 2 && elems < MIN_PAR_ELEMS {
        return crate::ops::pool::maxpool2d_eval_naive(input, k);
    }
    let planes = n * c;
    let out_plane = oh * ow;
    let mut out = Tensor::zeros(&[n, c, oh, ow]);
    let iv = input.as_slice();
    let planes_per = if k == 2 && elems < MIN_PAR_POOL2_ELEMS {
        planes.max(1)
    } else {
        planes.div_ceil(par::max_threads()).max(1)
    };
    par::for_each_chunk_mut(
        out.as_mut_slice(),
        planes_per * out_plane.max(1),
        |chunk_i, oc| {
            let p0 = chunk_i * planes_per;
            if k == 2 {
                maxpool2x2_planes(&iv[p0 * h * w..], oc, h, w);
                return;
            }
            for (local, op) in oc.chunks_mut(out_plane.max(1)).enumerate() {
                let plane_base = (p0 + local) * h * w;
                let mut oidx = 0usize;
                for ohi in 0..oh {
                    for owi in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        for ki in 0..k {
                            let ih = ohi * k + ki;
                            for kj in 0..k {
                                let off = plane_base + ih * w + owi * k + kj;
                                best = best.max(iv[off]);
                            }
                        }
                        op[oidx] = best;
                        oidx += 1;
                    }
                }
            }
        },
    );
    Ok(out)
}

pub(crate) fn maxpool2d_backward(grad_out: &Tensor, indices: &MaxPoolIndices) -> Result<Tensor> {
    if grad_out.numel() != indices.winners.len() {
        return Err(TensorError::LengthMismatch {
            expected: indices.winners.len(),
            got: grad_out.numel(),
            op: "maxpool2d_backward",
        });
    }
    let dims = &indices.input_dims;
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    if n * c * h * w < MIN_PAR_ELEMS {
        return crate::ops::pool::maxpool2d_backward_naive(grad_out, indices);
    }
    let planes = n * c;
    let in_plane = h * w;
    let out_plane = grad_out.numel().checked_div(planes).unwrap_or(0);
    let mut grad_input = Tensor::zeros(dims);
    let gv = grad_out.as_slice();
    let wv = &indices.winners;
    let planes_per = planes.div_ceil(par::max_threads()).max(1);
    // Winner offsets stay inside their own plane, so chunking the input
    // gradient by whole planes gives disjoint writes.
    par::for_each_chunk_mut(
        grad_input.as_mut_slice(),
        planes_per * in_plane.max(1),
        |chunk_i, gi_chunk| {
            let p0 = chunk_i * planes_per;
            let in_base = p0 * in_plane;
            let out_lo = p0 * out_plane;
            let out_hi = (out_lo + gi_chunk.len() / in_plane.max(1) * out_plane).min(gv.len());
            for (&win, &g) in wv[out_lo..out_hi].iter().zip(&gv[out_lo..out_hi]) {
                gi_chunk[win - in_base] += g;
            }
        },
    );
    Ok(grad_input)
}

pub(crate) fn avgpool2d_global_forward(input: &Tensor) -> Result<Tensor> {
    let (n, c, h, w) = check_nchw(input, "avgpool2d_global")?;
    if n * c * h * w < MIN_PAR_ELEMS {
        return crate::ops::pool::avgpool2d_global_forward_naive(input);
    }
    let mut out = Tensor::zeros(&[n, c]);
    let iv = input.as_slice();
    let area = (h * w) as f32;
    let plane = h * w;
    let planes_per = (n * c).div_ceil(par::max_threads()).max(1);
    par::for_each_chunk_mut(out.as_mut_slice(), planes_per, |chunk_i, oc| {
        let p0 = chunk_i * planes_per;
        for (local, o) in oc.iter_mut().enumerate() {
            let base = (p0 + local) * plane;
            let s: f32 = iv[base..base + plane].iter().sum();
            *o = s / area;
        }
    });
    Ok(out)
}

pub(crate) fn avgpool2d_global_backward(grad_out: &Tensor, input_dims: &[usize]) -> Result<Tensor> {
    if input_dims.len() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            got: input_dims.len(),
            op: "avgpool2d_global_backward",
        });
    }
    let (n, c, h, w) = (input_dims[0], input_dims[1], input_dims[2], input_dims[3]);
    if grad_out.dims() != [n, c] {
        return Err(TensorError::ShapeMismatch {
            expected: vec![n, c],
            got: grad_out.dims().to_vec(),
            op: "avgpool2d_global_backward",
        });
    }
    if n * c * h * w < MIN_PAR_ELEMS {
        return crate::ops::pool::avgpool2d_global_backward_naive(grad_out, input_dims);
    }
    let mut grad_input = Tensor::zeros(input_dims);
    let gv = grad_out.as_slice();
    let area = (h * w) as f32;
    let plane = h * w;
    let planes_per = (n * c).div_ceil(par::max_threads()).max(1);
    par::for_each_chunk_mut(
        grad_input.as_mut_slice(),
        planes_per * plane.max(1),
        |chunk_i, chunk| {
            let p0 = chunk_i * planes_per;
            for (local, gp) in chunk.chunks_mut(plane.max(1)).enumerate() {
                let g = gv[p0 + local] / area;
                for x in gp.iter_mut() {
                    *x = g;
                }
            }
        },
    );
    Ok(grad_input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The AVX2 1×1 tile against the portable GEMM plus sweep it replaces,
    /// called directly: depths on both sides of the `KB` block, plane
    /// widths with 16- and 8-wide tails (one overlapping), spans starting
    /// at every `PACK_MR` block of a 21-channel layer (so the last row tile
    /// reads panel padding), with and without a bias, every epilogue.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_pointwise_tile_matches_portable_gemm() {
        if !have_avx2() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(41);
        let o = 21;
        for k in [1usize, 5, KB, KB + 1, 2 * KB + 3] {
            let w = init::randn(&[o, k], 0.5, &mut rng);
            let mut panels = vec![0.0; packed_panel_len(o, k)];
            pack_panels_into(w.as_slice(), o, k, &mut panels);
            let bias = init::randn(&[o], 0.1, &mut rng);
            for n in [8usize, 13, 24, 40, 47, 64] {
                let x = init::randn(&[k, n], 1.0, &mut rng);
                let operand = init::randn(&[o, n], 1.0, &mut rng);
                for ch0 in [0, 8, 16] {
                    let rows = o - ch0;
                    let t = &operand.as_slice()[ch0 * n..];
                    for epi in [
                        RowEpilogue::None,
                        RowEpilogue::Relu,
                        RowEpilogue::AddRelu(t),
                        RowEpilogue::ReluAdd(t),
                    ] {
                        for b in [None, Some(bias.as_slice())] {
                            let mut portable = vec![0.0; rows * n];
                            let a_at = |i: usize, kk: usize| {
                                panels[((i / PACK_MR) * k + kk) * PACK_MR + i % PACK_MR]
                            };
                            kernel_rows_with(a_at, x.as_slice(), &mut portable, ch0, rows, k, n);
                            sweep_epilogue(&mut portable, ch0, rows, n, b, epi);
                            let mut tiled = vec![f32::NAN; rows * n];
                            let span = pointwise_avx2::Span {
                                panels: &panels,
                                x: x.as_slice(),
                                ch0,
                                rows,
                                k,
                                n,
                                bias: b,
                                epi,
                            };
                            // SAFETY: AVX2 checked above.
                            #[allow(unsafe_code)]
                            unsafe {
                                pointwise_avx2::span(span, &mut tiled);
                            }
                            let bits =
                                |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                            assert_eq!(
                                bits(&tiled),
                                bits(&portable),
                                "k {k} n {n} ch0 {ch0} bias {}",
                                b.is_some()
                            );
                        }
                    }
                }
            }
        }
    }
}

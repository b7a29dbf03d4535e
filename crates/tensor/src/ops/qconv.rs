//! Int8 quantized convolution for the exposed REE branch.
//!
//! The TBNet threat model deliberately exposes the rich branch `M_R` in
//! normal-world memory, so its inference precision is a pure speed/accuracy
//! trade with no security budget attached. This module quantizes a
//! (BN-folded) convolution weight **symmetrically per output channel** to
//! signed 7-bit integers and runs the forward pass as a u8×i8 integer GEMM
//! over quantized activations:
//!
//! * weights: `q_w = round(w / s_w[oc])`, `s_w[oc] = max|w[oc]| / 64`. The
//!   ±64 range (instead of ±127) guarantees that a pair-sum
//!   `a₀·w₀ + a₁·w₁ ≤ 2 · 255 · 64 = 32640` never saturates the i16 lanes
//!   of the AVX2 `maddubs` microkernel, so the SIMD and portable paths
//!   compute bit-identical integer accumulators;
//! * activations: affine u8, `q_a = clamp(round(x / s_a) + zp, 0, 255)`.
//!   Padded positions store `zp` (the quantized value of real 0.0), which
//!   keeps the zero-point correction exact:
//!   `Σ (q_a − zp) · q_w = Σ q_a·q_w − zp · Σ q_w`, with `Σ q_w` per output
//!   channel precomputed at quantization time.
//!
//! Integer sums are exact and order-free, so every layout below computes
//! the same accumulator for an output as any other grouping of its taps
//! would, and the dequantization `deq · (acc − zp·Σq_w) + b` is one shared
//! epilogue.
//!
//! # Data layout
//!
//! The reduction dimension is packed in **quads** of 4 terms: one
//! `maddubs` + `madd(ones)` pair folds a quad into an i32 lane for each of
//! 8 output positions (32 activation bytes, exactly one AVX2 register).
//! Which 4 terms share a quad depends on the kernel, and is fixed when the
//! weight is quantized:
//!
//! * **Tap quads** (dense `KH×KW` kernels, [`QuantConv2dWeight::quantize`]):
//!   a quad holds the 4 kernel-row taps `kj = 4·jb .. 4·jb+3` of one
//!   `(ci, ki)` slice (taps past `kw` carry zero weight). The sample is
//!   quantized once into a zero-point-padded image, and each 32-byte panel
//!   block is one sliding-window byte shuffle of an input row (stride 1
//!   and 2) instead of a per-byte gather.
//! * **Channel quads** (1×1 kernels, also [`QuantConv2dWeight::quantize`]):
//!   a quad holds one tap of 4 consecutive input channels, so no byte of
//!   the GEMM multiplies a padding tap. The panel interleaves 4 quantized
//!   channel planes per output position.
//! * **Depthwise** ([`QuantConv2dWeight::quantize_depthwise`], weight
//!   `[C, 1, KH, KW]`): each channel stores only its own `[KH, row quads,
//!   4]` taps, and each output row accumulates them straight from sliding
//!   windows of that channel's quantized plane — no panel, no
//!   cross-channel GEMM.
//!
//! Weight rows of the two GEMM layouts are zero-padded to a multiple of 4
//! output channels, so every row block runs the 4-row microkernel.
//!
//! Activation ranges come from the *preceding* unit's BatchNorm running
//! statistics (post-BN activations distribute like `β + γ·x̂`, and ReLU
//! clamps the low side to zero), so deployment needs no calibration pass;
//! the network input, which has no BN upstream, falls back to a dynamic
//! per-tensor min/max scan.
//!
//! Scratch buffers (the padded quantized image or plane and the panel) come
//! from a thread-local byte arena that mirrors [`crate::arena`]'s
//! power-of-two size classes, so steady-state quantized inference allocates
//! only the output tensor.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

use crate::ops::conv::conv_output_size;
use crate::par;
use crate::{Result, Tensor, TensorError};

/// Largest magnitude a quantized weight may take: headroom for the AVX2
/// `maddubs` pair-sum (see module docs).
const W_QMAX: f32 = 64.0;

/// Output positions per GEMM block: one AVX2 register of i32 lanes.
const POS_BLOCK: usize = 8;

/// Weight rows per GEMM microkernel call.
const ROW_BLOCK: usize = 4;

// ---------------------------------------------------------------------------
// Thread-local byte arena (u8 twin of `crate::arena`).
// ---------------------------------------------------------------------------

thread_local! {
    static BYTE_FREE: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// A checked-out byte scratch buffer; returns to the owning thread's free
/// list on drop.
struct ByteScratch {
    buf: Vec<u8>,
}

impl Deref for ByteScratch {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for ByteScratch {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl Drop for ByteScratch {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        if buf.capacity() > 0 {
            BYTE_FREE.with(|f| f.borrow_mut().push(buf));
        }
    }
}

/// Checks out `len` bytes of scratch with arbitrary contents. Best-fit
/// reuse with power-of-two growth classes, exactly like [`crate::arena`]:
/// once every size class exists, checkouts stop touching the allocator.
fn take_bytes(len: usize) -> ByteScratch {
    if len == 0 {
        return ByteScratch { buf: Vec::new() };
    }
    let reclaimed = BYTE_FREE.with(|f| {
        let mut free = f.borrow_mut();
        let best = free
            .iter()
            .enumerate()
            .filter(|(_, b)| b.capacity() >= len)
            .min_by_key(|(_, b)| b.capacity())
            .map(|(i, _)| i)
            .or_else(|| {
                free.iter()
                    .enumerate()
                    .max_by_key(|(_, b)| b.capacity())
                    .map(|(i, _)| i)
            });
        best.map(|i| free.swap_remove(i))
    });
    let mut buf = reclaimed.unwrap_or_default();
    if buf.capacity() < len {
        buf.clear();
        buf.reserve_exact(len.next_power_of_two());
    }
    buf.resize(len, 0);
    ByteScratch { buf }
}

// ---------------------------------------------------------------------------
// Quantized operand types.
// ---------------------------------------------------------------------------

/// How a [`QuantConv2dWeight`] groups its reduction dimension into quads
/// (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// `[O4, C·KH·row_quads, 4]`: 4 kernel-row taps of one `(ci, ki)`.
    Taps,
    /// `[O4, ceil(C/4), 4]`: the 1×1 taps of 4 consecutive input channels.
    Channels,
    /// `[C, KH·row_quads, 4]`: each channel's own kernel-row taps.
    Depthwise,
}

/// A convolution weight quantized symmetrically per output channel and
/// packed in quads for the u8×i8 integer kernels: tap quads for dense
/// kernels, channel quads for 1×1 kernels, per-channel tap quads for
/// depthwise kernels (see the module docs).
#[derive(Debug, Clone)]
pub struct QuantConv2dWeight {
    q: Vec<i8>,
    scales: Vec<f32>,
    wsum: Vec<i32>,
    layout: Layout,
    o: usize,
    c: usize,
    kh: usize,
    kw: usize,
    /// Quads per kernel row: `ceil(kw / 4)`.
    row_quads: usize,
    /// Quads per weight row (per output channel).
    quads: usize,
}

impl QuantConv2dWeight {
    /// Quantizes a dense `[O, C, KH, KW]` weight (typically the BN-folded
    /// inference weight) to per-output-channel symmetric int8: channel
    /// quads for 1×1 kernels, tap quads otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-rank-4 weights.
    pub fn quantize(weight: &Tensor) -> Result<Self> {
        let (o, c, kh, kw) = dims4(weight, "quantize_conv2d_weight")?;
        let rows = o.next_multiple_of(ROW_BLOCK);
        if kh == 1 && kw == 1 {
            // Input channel `ci` sits in quad `ci / 4`, lane `ci % 4`: byte
            // `ci` of the row, so a row is the f32 row zero-padded to whole
            // quads.
            let quads = c.div_ceil(4);
            return Ok(Self::pack(
                weight,
                Layout::Channels,
                (o, c),
                rows,
                1,
                quads,
                |i| i,
            ));
        }
        let row_quads = kw.div_ceil(4).max(1);
        let quads = c * kh * row_quads;
        Ok(Self::pack(
            weight,
            Layout::Taps,
            (o, c),
            rows,
            row_quads,
            quads,
            |i| tap_slot(i, kw, row_quads),
        ))
    }

    /// Quantizes a depthwise `[C, 1, KH, KW]` weight per channel. Each
    /// channel keeps only its own taps; its scale and tap sum equal those
    /// of the matching row of the dense block-diagonal `[C, C, KH, KW]`
    /// expansion, so the int8 output is the same as that expansion's.
    /// (Shape cannot tell a depthwise weight from a dense one with one
    /// input channel, hence the separate constructor.)
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-rank-4 weights and
    /// [`TensorError::ShapeMismatch`] when dimension 1 is not 1.
    pub fn quantize_depthwise(weight: &Tensor) -> Result<Self> {
        let (c, one, kh, kw) = dims4(weight, "quantize_depthwise_weight")?;
        if one != 1 {
            return Err(TensorError::ShapeMismatch {
                expected: vec![c, 1, kh, kw],
                got: weight.dims().to_vec(),
                op: "quantize_depthwise_weight",
            });
        }
        let row_quads = kw.div_ceil(4).max(1);
        Ok(Self::pack(
            weight,
            Layout::Depthwise,
            (c, c),
            c,
            row_quads,
            kh * row_quads,
            |i| tap_slot(i, kw, row_quads),
        ))
    }

    /// Quantizes each output channel's f32 row of `weight` (in its
    /// `[ci][ki][kj]` order) into `rows` packed rows of `quads` quads;
    /// `slot(i)` is the byte of flat tap `i` within its packed row. Rows
    /// past `o` stay zero.
    fn pack(
        weight: &Tensor,
        layout: Layout,
        (o, c): (usize, usize),
        rows: usize,
        row_quads: usize,
        quads: usize,
        slot: impl Fn(usize) -> usize,
    ) -> Self {
        let (kh, kw) = (weight.dim(2), weight.dim(3));
        let wv = weight.as_slice();
        let row_len = weight.dim(1) * kh * kw;
        let mut q = vec![0i8; rows * quads * 4];
        let mut scales = vec![0.0f32; o];
        let mut wsum = vec![0i32; o];
        for oc in 0..o {
            let row = &wv[oc * row_len..(oc + 1) * row_len];
            let maxabs = row.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
            let s = if maxabs > 0.0 { maxabs / W_QMAX } else { 1.0 };
            scales[oc] = s;
            let dst = &mut q[oc * quads * 4..(oc + 1) * quads * 4];
            let mut sum = 0i32;
            for (i, &x) in row.iter().enumerate() {
                let v = (x / s).round().clamp(-W_QMAX, W_QMAX) as i32;
                sum += v;
                dst[slot(i)] = v as i8;
            }
            wsum[oc] = sum;
        }
        QuantConv2dWeight {
            q,
            scales,
            wsum,
            layout,
            o,
            c,
            kh,
            kw,
            row_quads,
            quads,
        }
    }

    /// Output channels.
    pub fn out_channels(&self) -> usize {
        self.o
    }

    /// Input channels (equal to the output channels for a depthwise
    /// weight).
    pub fn in_channels(&self) -> usize {
        self.c
    }

    /// Kernel height/width.
    pub fn kernel(&self) -> (usize, usize) {
        (self.kh, self.kw)
    }

    /// Whether this weight was quantized as depthwise
    /// ([`QuantConv2dWeight::quantize_depthwise`]).
    pub fn is_depthwise(&self) -> bool {
        self.layout == Layout::Depthwise
    }

    /// Bytes held by the quantized weight (the REE memory the int8 branch
    /// ships instead of f32 weights).
    pub fn packed_bytes(&self) -> usize {
        self.q.len() + self.scales.len() * 4 + self.wsum.len() * 4
    }
}

/// `[A, B, KH, KW]` of a rank-4 weight.
fn dims4(weight: &Tensor, op: &'static str) -> Result<(usize, usize, usize, usize)> {
    if weight.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            got: weight.rank(),
            op,
        });
    }
    Ok((weight.dim(0), weight.dim(1), weight.dim(2), weight.dim(3)))
}

/// Byte of flat tap `i = (ci·KH + ki)·KW + kj` in a tap-quad row: quad
/// `(ci·KH + ki)·row_quads + kj / 4`, lane `kj % 4`.
fn tap_slot(i: usize, kw: usize, row_quads: usize) -> usize {
    let (line, kj) = (i / kw, i % kw);
    (line * row_quads + kj / 4) * 4 + kj % 4
}

/// Affine u8 activation quantization parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActQuant {
    /// Real-value step per quantization level.
    pub scale: f32,
    /// The u8 code representing real 0.0.
    pub zero_point: u8,
}

impl ActQuant {
    /// Parameters covering the real range `[lo, hi]`. The range is widened
    /// to include 0.0 so the zero point is exact (padding correctness
    /// depends on it).
    pub fn from_range(lo: f32, hi: f32) -> ActQuant {
        let lo = lo.min(0.0);
        let hi = hi.max(0.0);
        let scale = ((hi - lo) / 255.0).max(1e-10);
        let zero_point = (-lo / scale).round().clamp(0.0, 255.0) as u8;
        ActQuant { scale, zero_point }
    }

    /// Dynamic per-tensor calibration: exact min/max scan. Used for the
    /// network input, which has no upstream BatchNorm to derive a static
    /// range from.
    pub fn from_tensor(x: &Tensor) -> ActQuant {
        let (mut lo, mut hi) = (0.0f32, 0.0f32);
        for &v in x.as_slice() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        ActQuant::from_range(lo, hi)
    }

    /// Quantizes one real value to its u8 code.
    #[inline]
    pub fn quantize(&self, x: f32) -> u8 {
        (x / self.scale + f32::from(self.zero_point))
            .round()
            .clamp(0.0, 255.0) as u8
    }
}

/// The kernels' activation quantizer: the multiply-by-inverse form of
/// [`ActQuant::quantize`].
#[derive(Clone, Copy)]
struct Codes {
    inv_scale: f32,
    zpf: f32,
    zp: u8,
}

impl Codes {
    fn new(act: ActQuant) -> Codes {
        Codes {
            inv_scale: 1.0 / act.scale,
            zpf: f32::from(act.zero_point),
            zp: act.zero_point,
        }
    }

    /// Round-half-up via the saturating cast (truncation equals floor for
    /// the non-negative in-range values, and the cast clamps the rest);
    /// `round()`/`floor()` would lower to a per-element libm call on
    /// baseline targets. Codes differ from [`ActQuant::quantize`] only on
    /// exact half-steps.
    #[inline(always)]
    fn code(self, x: f32) -> u8 {
        (x * self.inv_scale + self.zpf + 0.5) as u8
    }

    /// Quantizes the `h×w` plane `src` into `dst`, a zero-point-padded
    /// buffer of row pitch `wpad`, at row/column offset `pad`.
    fn plane_into(
        self,
        src: &[f32],
        dst: &mut [u8],
        (h, w): (usize, usize),
        wpad: usize,
        pad: usize,
    ) {
        for ih in 0..h {
            let srow = &src[ih * w..(ih + 1) * w];
            let drow = &mut dst[(ih + pad) * wpad + pad..][..w];
            for (d, &x) in drow.iter_mut().zip(srow) {
                *d = self.code(x);
            }
        }
    }
}

/// The dequantizing epilogue every layout shares: `deq · (acc − zp·Σq_w)
/// + b` per output channel, then the optional fused ReLU.
struct Dequant<'a> {
    act_scale: f32,
    zp: i32,
    bias: Option<&'a [f32]>,
    relu: bool,
}

impl Dequant<'_> {
    /// Output channel `ch`'s constants.
    #[inline]
    fn channel(&self, qw: &QuantConv2dWeight, ch: usize) -> ChannelDequant {
        ChannelDequant {
            deq: self.act_scale * qw.scales[ch],
            corr: self.zp * qw.wsum[ch],
            b: self.bias.map_or(0.0, |bv| bv[ch]),
            relu: self.relu,
        }
    }

    /// Writes channel `ch`'s outputs for one run of positions.
    #[inline]
    fn store(&self, qw: &QuantConv2dWeight, ch: usize, acc: &[i32], dst: &mut [f32]) {
        let ce = self.channel(qw, ch);
        for (d, &a) in dst.iter_mut().zip(acc) {
            *d = ce.apply(a);
        }
    }
}

/// One output channel's dequantization constants: `deq = s_a · s_w`,
/// `corr = zp · Σq_w`, the bias `b` and whether ReLU follows.
#[derive(Clone, Copy)]
struct ChannelDequant {
    deq: f32,
    corr: i32,
    b: f32,
    relu: bool,
}

impl ChannelDequant {
    #[inline(always)]
    fn apply(self, acc: i32) -> f32 {
        let v = self.deq * (acc - self.corr) as f32 + self.b;
        if self.relu {
            v.max(0.0)
        } else {
            v
        }
    }
}

// ---------------------------------------------------------------------------
// Integer microkernels.
// ---------------------------------------------------------------------------

/// True when the CPU can run the `maddubs` microkernels.
#[inline]
fn have_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Portable panel build for one tap quad: 4 consecutive row bytes per
/// output position. Identical layout to the SIMD shuffle path.
#[inline]
fn build_quad_portable(row: &[u8], dst: &mut [u8], owr: usize, stride: usize, jb4: usize) {
    for p in 0..owr {
        let base = p * stride + jb4;
        dst[p * 4..p * 4 + 4].copy_from_slice(&row[base..base + 4]);
    }
}

/// Portable GEMM for one position block: every quad of the 4 weight rows
/// in `rows` (row-major, `quads * 4` bytes each) into i32, exactly matching
/// the AVX2 kernel (which never saturates by the ±64 weight range).
#[inline]
#[allow(clippy::needless_range_loop)]
fn gemm_block_portable(
    panel: &[u8],
    rows: &[i8],
    quads: usize,
    owr: usize,
    p0: usize,
    acc: &mut [[i32; POS_BLOCK]; ROW_BLOCK],
) {
    for a in acc.iter_mut() {
        *a = [0; POS_BLOCK];
    }
    for q in 0..quads {
        let ap = &panel[(q * owr + p0) * 4..(q * owr + p0 + POS_BLOCK) * 4];
        for (r, a) in acc.iter_mut().enumerate() {
            let wq = &rows[(r * quads + q) * 4..(r * quads + q) * 4 + 4];
            for p in 0..POS_BLOCK {
                let mut s = 0i32;
                for l in 0..4 {
                    s += i32::from(ap[p * 4 + l]) * i32::from(wq[l]);
                }
                a[p] += s;
            }
        }
    }
}

/// Portable depthwise block: 8 output positions of one channel, each the
/// sum of its `kh` kernel rows' tap quads. `plane[src..]` is the padded
/// plane at the block's first window (row pitch `wpad`); `taps` is the
/// channel's `[KH, row_quads, 4]` weight.
#[allow(clippy::needless_range_loop)]
fn dw_block_portable(
    plane: &[u8],
    src: usize,
    wpad: usize,
    (kh, row_quads, stride): (usize, usize, usize),
    taps: &[i8],
    acc: &mut [i32; POS_BLOCK],
) {
    for p in 0..POS_BLOCK {
        let mut s = 0i32;
        for ki in 0..kh {
            for jb in 0..row_quads {
                let a = &plane[src + ki * wpad + p * stride + jb * 4..][..4];
                let wq = &taps[(ki * row_quads + jb) * 4..][..4];
                for l in 0..4 {
                    s += i32::from(a[l]) * i32::from(wq[l]);
                }
            }
        }
        acc[p] = s;
    }
}

/// One channel of the depthwise kernel: quantize the `h×w` plane `src`
/// into the interior of `plane` (zero-point borders, row pitch `wpad`),
/// accumulate every 8-position block of every output row from the
/// channel's tap quads `taps`, and dequantize into `dst` (`[OH, OW]`). On
/// the AVX2 kernel when `simd` (the caller checked [`have_avx2`] and
/// `stride <= 2`), else portable.
#[allow(clippy::too_many_arguments)]
fn dw_plane(
    src: &[f32],
    plane: &mut [u8],
    taps: &[i8],
    g: Geom,
    (wpad, kh, row_quads): (usize, usize, usize),
    codes: Codes,
    ce: ChannelDequant,
    simd: bool,
    dst: &mut [f32],
) {
    let Geom {
        h,
        w,
        oh,
        ow,
        stride,
        pad,
        ..
    } = g;
    assert!(kh >= 1 && taps.len() == kh * row_quads * 4);
    assert!(src.len() == h * w && dst.len() == oh * ow && oh >= 1 && ow >= 1);
    assert!((ow - 1) * stride <= w + 2 * pad);
    // Every window of the last output row stays inside the plane: its
    // register load reads at most `POS_BLOCK * stride + 16` bytes past the
    // last block's start.
    assert!(wpad >= w + 2 * pad + POS_BLOCK * stride + 4 * row_quads + 16);
    assert!(plane.len() >= (h + 2 * pad) * wpad && (oh - 1) * stride + kh <= h + 2 * pad);
    #[cfg(target_arch = "x86_64")]
    if simd {
        // SAFETY: AVX2 and `stride <= 2` verified by the caller; the
        // asserts above are the kernel's bounds contract.
        #[allow(unsafe_code)]
        unsafe {
            avx2::dw_plane(src, plane, taps, g, (wpad, kh, row_quads), codes, ce, dst);
        }
        return;
    }
    let _ = simd;
    codes.plane_into(src, plane, (h, w), wpad, pad);
    let mut acc = [0i32; POS_BLOCK];
    for ohi in 0..oh {
        for p0 in (0..ow).step_by(POS_BLOCK) {
            let start = ohi * stride * wpad + p0 * stride;
            dw_block_portable(plane, start, wpad, (kh, row_quads, stride), taps, &mut acc);
            let pn = (ow - p0).min(POS_BLOCK);
            for (d, &a) in dst[ohi * ow + p0..][..pn].iter_mut().zip(&acc) {
                *d = ce.apply(a);
            }
        }
    }
}

/// AVX2 microkernels over the quad layouts. `maddubs` multiplies
/// unsigned×signed bytes into i16 pair-sums (non-saturating here by the
/// ±64 weight range), `madd` with ones widens a whole quad to i32 — one
/// instruction pair per quad per weight row covers 8 output positions.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    #![allow(unsafe_code)]

    use std::arch::x86_64::{
        __m128i, __m256i, _mm256_add_epi32, _mm256_add_ps, _mm256_broadcastsi128_si256,
        _mm256_castsi128_si256, _mm256_castsi256_si128, _mm256_cvtepi32_ps, _mm256_cvttps_epi32,
        _mm256_inserti128_si256, _mm256_loadu_ps, _mm256_loadu_si256, _mm256_madd_epi16,
        _mm256_maddubs_epi16, _mm256_max_ps, _mm256_min_ps, _mm256_mul_ps,
        _mm256_permutevar8x32_epi32, _mm256_set1_epi16, _mm256_set1_epi32, _mm256_set1_ps,
        _mm256_setr_epi32, _mm256_setr_epi8, _mm256_setzero_ps, _mm256_setzero_si256,
        _mm256_shuffle_epi8, _mm256_storeu_ps, _mm256_storeu_si256, _mm256_sub_epi32,
        _mm_loadu_si128, _mm_set1_epi8, _mm_storel_epi64, _mm_storeu_si128, _mm_unpackhi_epi16,
        _mm_unpacklo_epi16, _mm_unpacklo_epi8,
    };

    use super::{ChannelDequant, Codes, Dequant, Geom, QuantConv2dWeight, POS_BLOCK, ROW_BLOCK};

    /// The 4-byte windows of `src` starting at offsets `0..8` (stride 1).
    ///
    /// # Safety
    ///
    /// Requires AVX2; `src` must be readable for 16 bytes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn window1(src: *const u8) -> __m256i {
        // SAFETY: per the function contract; the shuffle indices stay
        // within the broadcast 16-byte lane (max index 10).
        unsafe {
            let idx = _mm256_setr_epi8(
                0, 1, 2, 3, 1, 2, 3, 4, 2, 3, 4, 5, 3, 4, 5, 6, //
                4, 5, 6, 7, 5, 6, 7, 8, 6, 7, 8, 9, 7, 8, 9, 10,
            );
            let b = _mm256_broadcastsi128_si256(_mm_loadu_si128(src.cast()));
            _mm256_shuffle_epi8(b, idx)
        }
    }

    /// The 4-byte windows of `src` starting at offsets `0, 2, .., 14`
    /// (stride 2).
    ///
    /// # Safety
    ///
    /// Requires AVX2; `src` must be readable for 24 bytes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn window2(src: *const u8) -> __m256i {
        // SAFETY: per the function contract; lane 0 reads `src[0..16]`,
        // lane 1 reads `src[8..24]`, shuffle indices stay in-lane (max 9).
        unsafe {
            let idx = _mm256_setr_epi8(
                0, 1, 2, 3, 2, 3, 4, 5, 4, 5, 6, 7, 6, 7, 8, 9, //
                0, 1, 2, 3, 2, 3, 4, 5, 4, 5, 6, 7, 6, 7, 8, 9,
            );
            let lo = _mm_loadu_si128(src.cast());
            let hi = _mm_loadu_si128(src.add(8).cast());
            let b = _mm256_inserti128_si256(_mm256_castsi128_si256(lo), hi, 1);
            _mm256_shuffle_epi8(b, idx)
        }
    }

    /// Builds one 32-byte tap-quad panel block for stride 1.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `src` must be readable for 16 bytes and `dst`
    /// writable for 32.
    #[target_feature(enable = "avx2")]
    pub unsafe fn slide1(src: *const u8, dst: *mut u8) {
        // SAFETY: per the function contract.
        unsafe { _mm256_storeu_si256(dst.cast(), window1(src)) }
    }

    /// Builds one 32-byte tap-quad panel block for stride 2.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `src` must be readable for 24 bytes and `dst`
    /// writable for 32.
    #[target_feature(enable = "avx2")]
    pub unsafe fn slide2(src: *const u8, dst: *mut u8) {
        // SAFETY: per the function contract.
        unsafe { _mm256_storeu_si256(dst.cast(), window2(src)) }
    }

    /// Integer GEMM for one position block: 4 weight rows × 8 positions,
    /// all quads. `rows` holds the 4 rows back to back, `quads * 4` bytes
    /// each. Accumulators are written to `acc` as plain i32 lanes.
    ///
    /// # Safety
    ///
    /// Requires AVX2. `panel` must hold `quads * owr * 4` bytes with
    /// `p0 + POS_BLOCK <= owr`; `rows` must hold `4 * quads * 4` bytes.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gemm_block4(
        panel: *const u8,
        rows: *const i8,
        quads: usize,
        owr: usize,
        p0: usize,
        acc: &mut [[i32; POS_BLOCK]; ROW_BLOCK],
    ) {
        // SAFETY: per the function contract, every 32-byte panel load and
        // 4-byte weight load below stays in bounds.
        unsafe {
            let ones = _mm256_set1_epi16(1);
            let mut v = [_mm256_setzero_si256(); ROW_BLOCK];
            for q in 0..quads {
                let av = _mm256_loadu_si256(panel.add((q * owr + p0) * 4).cast());
                for (r, vr) in v.iter_mut().enumerate() {
                    let w = rows.add((r * quads + q) * 4).cast::<i32>().read_unaligned();
                    let p16 = _mm256_maddubs_epi16(av, _mm256_set1_epi32(w));
                    *vr = _mm256_add_epi32(*vr, _mm256_madd_epi16(p16, ones));
                }
            }
            for (a, vr) in acc.iter_mut().zip(v) {
                _mm256_storeu_si256(a.as_mut_ptr().cast::<__m256i>(), vr);
            }
        }
    }

    /// Quantizes 8 floats at `s` to their u8 codes in the low 8 bytes:
    /// `(x · inv + zp) + 0.5`, clamped to [0, 255] and truncated — the
    /// saturating `as u8` cast of `Codes::code`, NaN to 0 included.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `s` must be readable for 8 floats.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn quant8(s: *const f32, codes: Codes) -> __m128i {
        // SAFETY: per the function contract.
        unsafe {
            let x = _mm256_loadu_ps(s);
            let v = _mm256_add_ps(
                _mm256_add_ps(
                    _mm256_mul_ps(x, _mm256_set1_ps(codes.inv_scale)),
                    _mm256_set1_ps(codes.zpf),
                ),
                _mm256_set1_ps(0.5),
            );
            let clamped =
                _mm256_min_ps(_mm256_max_ps(v, _mm256_setzero_ps()), _mm256_set1_ps(255.0));
            let q = _mm256_cvttps_epi32(clamped);
            // Byte 0 of each i32 lane, gathered into the low 8 bytes.
            let pick = _mm256_setr_epi8(
                0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, //
                0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
            );
            let join = _mm256_setr_epi32(0, 4, 0, 0, 0, 0, 0, 0);
            _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
                _mm256_shuffle_epi8(q, pick),
                join,
            ))
        }
    }

    /// Dequantizes 8 accumulators into `pn` outputs at `out`:
    /// `deq · (acc − corr) + b`, then ReLU, as separate `vcvtdq2ps`,
    /// `vmulps`, `vaddps` and `vmaxps` — lane for lane the scalar
    /// `ChannelDequant::apply`.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `out` must be writable for `pn <= 8` floats.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store_dequant(ce: ChannelDequant, acc: __m256i, out: *mut f32, pn: usize) {
        // SAFETY: per the function contract.
        unsafe {
            let f = _mm256_cvtepi32_ps(_mm256_sub_epi32(acc, _mm256_set1_epi32(ce.corr)));
            let mut y = _mm256_add_ps(
                _mm256_mul_ps(_mm256_set1_ps(ce.deq), f),
                _mm256_set1_ps(ce.b),
            );
            if ce.relu {
                y = _mm256_max_ps(y, _mm256_setzero_ps());
            }
            if pn == POS_BLOCK {
                _mm256_storeu_ps(out, y);
            } else {
                let mut tail = [0.0f32; POS_BLOCK];
                _mm256_storeu_ps(tail.as_mut_ptr(), y);
                std::ptr::copy_nonoverlapping(tail.as_ptr(), out, pn);
            }
        }
    }

    /// `super::gemm_positions` on [`gemm_block4`] with the dequantization
    /// vectorized.
    ///
    /// # Safety
    ///
    /// Requires AVX2, plus the bounds `super::gemm_positions` asserts.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gemm_positions(
        panel: &[u8],
        qw: &QuantConv2dWeight,
        owr: usize,
        n: usize,
        epi: &Dequant<'_>,
        (spatial, t0): (usize, usize),
        dst: &mut [f32],
    ) {
        // SAFETY: per the function contract.
        unsafe {
            let row_bytes = qw.quads * 4;
            let mut acc = [[0i32; POS_BLOCK]; ROW_BLOCK];
            for p0 in (0..n).step_by(POS_BLOCK) {
                let pn = (n - p0).min(POS_BLOCK);
                for oc in (0..qw.o).step_by(ROW_BLOCK) {
                    let rows = qw.q.as_ptr().add(oc * row_bytes);
                    gemm_block4(panel.as_ptr(), rows, qw.quads, owr, p0, &mut acc);
                    for (r, a) in acc.iter().enumerate().take(qw.o - oc) {
                        let ch = oc + r;
                        let out = dst.as_mut_ptr().add(ch * spatial + t0 + p0);
                        let v = _mm256_loadu_si256(a.as_ptr().cast());
                        store_dequant(epi.channel(qw, ch), v, out, pn);
                    }
                }
            }
        }
    }

    /// `super::channel_panel` for a 1×1 conv without stride or padding:
    /// each 8-position block quantizes 8 pixels of 4 channels and
    /// interleaves them into 4-byte position quads.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `sample` must hold `c * spatial` floats and `panel`
    /// `ceil(c / 4) * owr * 4` bytes, with `spatial <= owr`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn channel_panel(
        sample: &[f32],
        c: usize,
        spatial: usize,
        codes: Codes,
        panel: &mut [u8],
        owr: usize,
    ) {
        // SAFETY: per the function contract.
        unsafe {
            let full = spatial / POS_BLOCK * POS_BLOCK;
            let zp = _mm_set1_epi8(codes.zp as i8);
            for cq in 0..c.div_ceil(4) {
                let dstq = panel.as_mut_ptr().add(cq * owr * 4);
                for p0 in (0..full).step_by(POS_BLOCK) {
                    let mut lanes = [zp; 4];
                    for (l, lane) in lanes.iter_mut().enumerate() {
                        let ci = 4 * cq + l;
                        if ci < c {
                            *lane = quant8(sample.as_ptr().add(ci * spatial + p0), codes);
                        }
                    }
                    let ab = _mm_unpacklo_epi8(lanes[0], lanes[1]);
                    let cd = _mm_unpacklo_epi8(lanes[2], lanes[3]);
                    let d = dstq.add(p0 * 4);
                    _mm_storeu_si128(d.cast(), _mm_unpacklo_epi16(ab, cd));
                    _mm_storeu_si128(d.add(16).cast(), _mm_unpackhi_epi16(ab, cd));
                }
                for t in full..spatial {
                    for l in 0..4 {
                        let ci = 4 * cq + l;
                        *dstq.add(t * 4 + l) = if ci < c {
                            codes.code(*sample.as_ptr().add(ci * spatial + t))
                        } else {
                            codes.zp
                        };
                    }
                }
            }
        }
    }

    /// One channel of the depthwise kernel (see `super::dw_plane`):
    /// vectorized quantization of the plane's interior, one window and one
    /// `maddubs` pair per tap quad for each 8-position block, and the
    /// vectorized dequantization.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and `stride` ∈ {1, 2}, plus the bounds `super::dw_plane`
    /// asserts.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub unsafe fn dw_plane(
        src: &[f32],
        plane: &mut [u8],
        taps: &[i8],
        g: Geom,
        (wpad, kh, row_quads): (usize, usize, usize),
        codes: Codes,
        ce: ChannelDequant,
        dst: &mut [f32],
    ) {
        let Geom {
            h,
            w,
            oh,
            ow,
            stride,
            pad,
            ..
        } = g;
        // SAFETY: per the function contract: quantized stores stay inside
        // the plane's interior rows, every window load inside the padded
        // plane, every output store inside `dst`.
        unsafe {
            for ih in 0..h {
                let s = src.as_ptr().add(ih * w);
                let d = plane.as_mut_ptr().add((ih + pad) * wpad + pad);
                let mut j = 0;
                while j + POS_BLOCK <= w {
                    _mm_storel_epi64(d.add(j).cast(), quant8(s.add(j), codes));
                    j += POS_BLOCK;
                }
                for j in j..w {
                    *d.add(j) = codes.code(*s.add(j));
                }
            }

            let ones = _mm256_set1_epi16(1);
            let base = plane.as_ptr();
            for ohi in 0..oh {
                for p0 in (0..ow).step_by(POS_BLOCK) {
                    let mut v = _mm256_setzero_si256();
                    for ki in 0..kh {
                        let row = base.add((ohi * stride + ki) * wpad + p0 * stride);
                        for jb in 0..row_quads {
                            let a = if stride == 1 {
                                window1(row.add(jb * 4))
                            } else {
                                window2(row.add(jb * 4))
                            };
                            let t = taps.as_ptr().add((ki * row_quads + jb) * 4);
                            let p16 = _mm256_maddubs_epi16(
                                a,
                                _mm256_set1_epi32(t.cast::<i32>().read_unaligned()),
                            );
                            v = _mm256_add_epi32(v, _mm256_madd_epi16(p16, ones));
                        }
                    }
                    let pn = (ow - p0).min(POS_BLOCK);
                    store_dequant(ce, v, dst.as_mut_ptr().add(ohi * ow + p0), pn);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Forward pass.
// ---------------------------------------------------------------------------

/// Per-sample geometry of one quantized convolution.
#[derive(Clone, Copy)]
struct Geom {
    c: usize,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    stride: usize,
    pad: usize,
}

impl Geom {
    /// Row pitch of a zero-point-padded quantized plane. The slack past the
    /// real padding keeps every sliding-window load of the tail position
    /// block in bounds; slack bytes are zp, and only zero-weight taps or
    /// discarded positions ever read them.
    fn padded_pitch(&self, row_quads: usize) -> usize {
        self.w + 2 * self.pad + POS_BLOCK * self.stride + 4 * row_quads + 24
    }
}

/// Quantized convolution forward: u8 activations × i8 weights with an i32
/// accumulator, dequantized (plus bias and optional fused ReLU) straight
/// into the f32 output. The kernel follows the weight's layout: tap-quad
/// GEMM, channel-quad GEMM or the per-channel depthwise stencil.
///
/// Matches the f32 convolution up to quantization error; the secure branch
/// never routes through this path.
///
/// # Errors
///
/// Returns rank/shape errors for inconsistent operands.
pub fn conv2d_forward_q8(
    input: &Tensor,
    qw: &QuantConv2dWeight,
    act: ActQuant,
    bias: Option<&Tensor>,
    stride: usize,
    pad: usize,
    relu: bool,
) -> Result<Tensor> {
    if input.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            got: input.rank(),
            op: "conv2d_q8",
        });
    }
    let (n, c, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
    if c != qw.c {
        return Err(TensorError::ShapeMismatch {
            expected: vec![qw.o, qw.c, qw.kh, qw.kw],
            got: vec![n, c, h, w],
            op: "conv2d_q8 (input channels)",
        });
    }
    let oh = conv_output_size(h, qw.kh, stride, pad)?;
    let ow = conv_output_size(w, qw.kw, stride, pad)?;
    if let Some(b) = bias {
        if b.numel() != qw.o {
            return Err(TensorError::LengthMismatch {
                expected: qw.o,
                got: b.numel(),
                op: "conv2d_q8 (bias)",
            });
        }
    }
    let mut out = Tensor::zeros(&[n, qw.o, oh, ow]);
    let iv = input.as_slice();
    let g = Geom {
        c,
        h,
        w,
        oh,
        ow,
        stride,
        pad,
    };
    let epi = Dequant {
        act_scale: act.scale,
        zp: i32::from(act.zero_point),
        bias: bias.map(Tensor::as_slice),
        relu,
    };
    let codes = Codes::new(act);
    let out_sample = qw.o * oh * ow;
    par::for_each_chunk_mut(out.as_mut_slice(), out_sample.max(1), |ni, chunk| {
        let sample = &iv[ni * c * h * w..(ni + 1) * c * h * w];
        match qw.layout {
            Layout::Taps => forward_sample_taps(sample, qw, codes, &epi, g, chunk),
            Layout::Channels => forward_sample_channels(sample, qw, codes, &epi, g, chunk),
            Layout::Depthwise => forward_sample_depthwise(sample, qw, codes, &epi, g, chunk),
        }
    });
    Ok(out)
}

/// Runs the 4-row GEMM over every (zero-padded) row block of `qw` for the
/// first `n` positions of `panel` (`owr` positions per quad), writing output
/// channel `ch`'s position `p` to `dst[ch * spatial + t0 + p]`. On the AVX2
/// kernels when `simd` (the caller checked [`have_avx2`]).
#[allow(clippy::too_many_arguments)]
fn gemm_positions(
    panel: &[u8],
    qw: &QuantConv2dWeight,
    owr: usize,
    n: usize,
    simd: bool,
    epi: &Dequant<'_>,
    (spatial, t0): (usize, usize),
    dst: &mut [f32],
) {
    assert!(n <= owr && owr.is_multiple_of(POS_BLOCK) && panel.len() >= qw.quads * owr * 4);
    assert!(qw.q.len() >= qw.o.next_multiple_of(ROW_BLOCK) * qw.quads * 4);
    assert!(qw.o == 0 || dst.len() >= (qw.o - 1) * spatial + t0 + n);
    #[cfg(target_arch = "x86_64")]
    if simd {
        // SAFETY: AVX2 verified by the caller; the asserts above are the
        // kernel's bounds contract.
        #[allow(unsafe_code)]
        unsafe {
            avx2::gemm_positions(panel, qw, owr, n, epi, (spatial, t0), dst);
        }
        return;
    }
    let _ = simd;
    let row_bytes = qw.quads * 4;
    let mut acc = [[0i32; POS_BLOCK]; ROW_BLOCK];
    for p0 in (0..n).step_by(POS_BLOCK) {
        let pn = (n - p0).min(POS_BLOCK);
        for oc in (0..qw.o).step_by(ROW_BLOCK) {
            let rows = &qw.q[oc * row_bytes..(oc + ROW_BLOCK) * row_bytes];
            gemm_block_portable(panel, rows, qw.quads, owr, p0, &mut acc);
            for (r, a) in acc.iter().enumerate().take(qw.o - oc) {
                let ch = oc + r;
                epi.store(qw, ch, &a[..pn], &mut dst[ch * spatial + t0 + p0..][..pn]);
            }
        }
    }
}

/// Builds the channel-quad panel of a 1×1 conv: position `t` of quad `cq`
/// holds the codes of input channels `4·cq .. 4·cq+3` under output
/// position `t` (zp for padding and for channels past `c`). Vectorized
/// when `simd` and the conv neither strides nor pads (the deployed case),
/// so that position `t` reads input pixel `t`.
fn channel_panel(sample: &[f32], g: Geom, codes: Codes, panel: &mut [u8], owr: usize, simd: bool) {
    let Geom {
        c,
        h,
        w,
        oh,
        ow,
        stride,
        pad,
    } = g;
    let spatial = oh * ow;
    let direct = stride == 1 && pad == 0;
    #[cfg(target_arch = "x86_64")]
    if simd && direct {
        assert!(spatial <= owr && sample.len() >= c * spatial);
        assert!(panel.len() >= c.div_ceil(4) * owr * 4);
        // SAFETY: AVX2 verified by the caller; the asserts above bound
        // every plane load and panel store.
        #[allow(unsafe_code)]
        unsafe {
            avx2::channel_panel(sample, c, spatial, codes, panel, owr);
        }
        return;
    }
    let _ = simd;
    for (cq, dstq) in panel.chunks_exact_mut(owr * 4).enumerate() {
        for l in 0..4 {
            let ci = 4 * cq + l;
            let lane = dstq[l..].iter_mut().step_by(4).take(spatial);
            if ci >= c {
                // Padding channel: zero weight, any byte will do.
                lane.for_each(|d| *d = codes.zp);
                continue;
            }
            let plane = &sample[ci * h * w..(ci + 1) * h * w];
            for (t, d) in lane.enumerate() {
                let (ih, iw) = ((t / ow) * stride, (t % ow) * stride);
                *d = if ih >= pad && ih - pad < h && iw >= pad && iw - pad < w {
                    codes.code(plane[(ih - pad) * w + iw - pad])
                } else {
                    codes.zp
                };
            }
        }
    }
}

/// One sample through the tap-quad GEMM: quantize the sample into a
/// zero-point-padded image, then per output row build the quad panel with
/// sliding-window shuffles and run the integer GEMM.
fn forward_sample_taps(
    sample: &[f32],
    qw: &QuantConv2dWeight,
    codes: Codes,
    epi: &Dequant<'_>,
    g: Geom,
    dst: &mut [f32],
) {
    let Geom {
        c,
        h,
        w,
        oh,
        ow,
        stride,
        pad,
    } = g;
    let (kh, row_quads, quads) = (qw.kh, qw.row_quads, qw.quads);
    let spatial = oh * ow;

    // Zero-point-padded quantized image.
    let (hpad, wpad) = (h + 2 * pad, g.padded_pitch(row_quads));
    let mut qpad = take_bytes(c * hpad * wpad);
    qpad.fill(codes.zp);
    for ci in 0..c {
        codes.plane_into(
            &sample[ci * h * w..(ci + 1) * h * w],
            &mut qpad[ci * hpad * wpad..(ci + 1) * hpad * wpad],
            (h, w),
            wpad,
            pad,
        );
    }

    // Panel for one output row: [quad][position][4 taps], positions padded
    // to a POS_BLOCK multiple (padded positions are computed and dropped).
    let owr = ow.div_ceil(POS_BLOCK) * POS_BLOCK;
    let mut panel = take_bytes(quads * owr * 4);
    let simd = have_avx2() && stride <= 2;
    for ohi in 0..oh {
        let mut q = 0;
        for ci in 0..c {
            for ki in 0..kh {
                let row = &qpad[(ci * hpad + ohi * stride + ki) * wpad..][..wpad];
                for jb in 0..row_quads {
                    let dstq = &mut panel[q * owr * 4..(q + 1) * owr * 4];
                    if simd {
                        #[cfg(target_arch = "x86_64")]
                        for p0 in (0..owr).step_by(POS_BLOCK) {
                            // SAFETY: AVX2 verified; the source offset plus
                            // the kernel's read span stays within `wpad`
                            // (see the slack above), and the destination
                            // block is 32 in-bounds panel bytes.
                            #[allow(unsafe_code)]
                            unsafe {
                                let src = row.as_ptr().add(p0 * stride + jb * 4);
                                let d = dstq.as_mut_ptr().add(p0 * 4);
                                if stride == 1 {
                                    avx2::slide1(src, d);
                                } else {
                                    avx2::slide2(src, d);
                                }
                            }
                        }
                    } else {
                        build_quad_portable(row, dstq, owr, stride, jb * 4);
                    }
                    q += 1;
                }
            }
        }
        gemm_positions(&panel, qw, owr, ow, simd, epi, (spatial, ohi * ow), dst);
    }
}

/// One sample through the channel-quad GEMM (1×1 kernels): build the
/// `[ceil(C/4)][position][4 channels]` panel over every output position at
/// once, then run the integer GEMM position block by position block.
fn forward_sample_channels(
    sample: &[f32],
    qw: &QuantConv2dWeight,
    codes: Codes,
    epi: &Dequant<'_>,
    g: Geom,
    dst: &mut [f32],
) {
    let spatial = g.oh * g.ow;
    let owr = spatial.div_ceil(POS_BLOCK) * POS_BLOCK;
    let mut panel = take_bytes(qw.quads * owr * 4);
    let simd = have_avx2();
    channel_panel(sample, g, codes, &mut panel, owr, simd);
    gemm_positions(&panel, qw, owr, spatial, simd, epi, (spatial, 0), dst);
}

/// One sample through the depthwise stencil: per channel, quantize its
/// plane into a zero-point-padded buffer and accumulate each 8-position
/// block of each output row from that channel's own tap quads.
fn forward_sample_depthwise(
    sample: &[f32],
    qw: &QuantConv2dWeight,
    codes: Codes,
    epi: &Dequant<'_>,
    g: Geom,
    dst: &mut [f32],
) {
    let Geom {
        c,
        h,
        w,
        oh,
        ow,
        stride,
        pad,
    } = g;
    let (kh, row_quads) = (qw.kh, qw.row_quads);
    let spatial = oh * ow;
    let tap_bytes = kh * row_quads * 4;
    let (hpad, wpad) = (h + 2 * pad, g.padded_pitch(row_quads));
    let mut plane = take_bytes(hpad * wpad);
    // The borders are zp for every channel; each channel rewrites only the
    // interior.
    plane.fill(codes.zp);
    let simd = have_avx2() && stride <= 2;
    for ch in 0..c {
        dw_plane(
            &sample[ch * h * w..(ch + 1) * h * w],
            &mut plane,
            &qw.q[ch * tap_bytes..(ch + 1) * tap_bytes],
            g,
            (wpad, kh, row_quads),
            codes,
            epi.channel(qw, ch),
            simd,
            &mut dst[ch * spatial..(ch + 1) * spatial],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use crate::ops::conv::conv2d_forward_naive;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn quant_error_bound(input: &Tensor, qw: &QuantConv2dWeight, act: ActQuant) -> f32 {
        // Worst case per output: ckk terms each off by ≤ s_a/2 · |w| plus
        // the weight rounding ≤ s_w/2 · |a|; a loose but sufficient bound.
        let ckk = qw.c * qw.kh * qw.kw;
        let wmax = qw.scales.iter().fold(0.0f32, |m, &s| m.max(s)) * W_QMAX;
        let amax = input.as_slice().iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let smax = qw.scales.iter().fold(0.0f32, |m, &s| m.max(s));
        ckk as f32 * (act.scale * wmax + smax * (amax + act.scale))
    }

    #[test]
    fn quantized_forward_tracks_f32_reference() {
        let mut rng = StdRng::seed_from_u64(9);
        for &(c, o, k, stride, pad) in &[
            (3usize, 8usize, 3usize, 1usize, 1usize),
            (8, 16, 1, 1, 0),
            (4, 6, 5, 2, 2),
        ] {
            let x = init::randn(&[2, c, 12, 12], 1.0, &mut rng);
            let w = init::randn(&[o, c, k, k], 0.2, &mut rng);
            let qw = QuantConv2dWeight::quantize(&w).unwrap();
            let act = ActQuant::from_tensor(&x);
            let q = conv2d_forward_q8(&x, &qw, act, None, stride, pad, false).unwrap();
            let f = conv2d_forward_naive(&x, &w, None, stride, pad).unwrap();
            assert_eq!(q.dims(), f.dims());
            let bound = quant_error_bound(&x, &qw, act);
            let max_err = q
                .as_slice()
                .iter()
                .zip(f.as_slice())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(
                max_err <= bound,
                "c{c} o{o} k{k} s{stride} p{pad}: err {max_err} > bound {bound}"
            );
            // The bound is loose; also require practically-tight tracking.
            let scale_ref = f
                .as_slice()
                .iter()
                .fold(0.0f32, |m, &v| m.max(v.abs()))
                .max(1.0);
            assert!(
                max_err / scale_ref < 0.05,
                "c{c} o{o} k{k}: relative error {max_err}/{scale_ref} too large"
            );
        }
    }

    #[test]
    fn odd_geometries_match_portable_reference() {
        // Shapes that exercise the position-block tail, the oc remainder
        // (o not a multiple of 4) and stride-2 shuffles.
        let mut rng = StdRng::seed_from_u64(12);
        for &(c, o, k, stride, pad, hw) in &[
            (5usize, 7usize, 3usize, 1usize, 1usize, 9usize),
            (2, 3, 3, 2, 1, 11),
            (4, 9, 5, 2, 2, 13),
            (3, 4, 1, 1, 0, 6),
        ] {
            let x = init::randn(&[2, c, hw, hw], 1.0, &mut rng);
            let w = init::randn(&[o, c, k, k], 0.2, &mut rng);
            let qw = QuantConv2dWeight::quantize(&w).unwrap();
            let act = ActQuant::from_tensor(&x);
            let q = conv2d_forward_q8(&x, &qw, act, None, stride, pad, false).unwrap();
            let f = conv2d_forward_naive(&x, &w, None, stride, pad).unwrap();
            let scale_ref = f
                .as_slice()
                .iter()
                .fold(0.0f32, |m, &v| m.max(v.abs()))
                .max(1.0);
            let max_err = q
                .as_slice()
                .iter()
                .zip(f.as_slice())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(
                max_err / scale_ref < 0.08,
                "c{c} o{o} k{k} s{stride} p{pad} {hw}x{hw}: err {max_err} vs {scale_ref}"
            );
        }
    }

    /// The integer reference: quantizes weights (per output channel, ±64)
    /// and activations with the kernels' own formulas, pads with the zero
    /// point, sums `q_a · q_w` in i32 per output in plain loop order and
    /// applies the kernels' dequantizing epilogue. `groups == C` gives the
    /// depthwise convolution of a `[C, 1, KH, KW]` weight.
    #[allow(clippy::too_many_arguments)]
    fn naive_q8(
        x: &Tensor,
        w: &Tensor,
        depthwise: bool,
        act: ActQuant,
        bias: Option<&Tensor>,
        stride: usize,
        pad: usize,
        relu: bool,
    ) -> Tensor {
        let (n, c, h, wd) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
        let (o, cw, kh, kw) = (w.dim(0), w.dim(1), w.dim(2), w.dim(3));
        let oh = conv_output_size(h, kh, stride, pad).unwrap();
        let ow = conv_output_size(wd, kw, stride, pad).unwrap();
        let zp = i32::from(act.zero_point);
        let code =
            |v: f32| i32::from((v * (1.0 / act.scale) + f32::from(act.zero_point) + 0.5) as u8);
        let row_len = cw * kh * kw;
        let mut out = Tensor::zeros(&[n, o, oh, ow]);
        for oc in 0..o {
            let row = &w.as_slice()[oc * row_len..(oc + 1) * row_len];
            let maxabs = row.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            let s = if maxabs > 0.0 { maxabs / W_QMAX } else { 1.0 };
            let qrow: Vec<i32> = row
                .iter()
                .map(|&v| (v / s).round().clamp(-W_QMAX, W_QMAX) as i32)
                .collect();
            let wsum: i32 = qrow.iter().sum();
            let deq = act.scale * s;
            let b = bias.map_or(0.0, |t| t.as_slice()[oc]);
            for ni in 0..n {
                for ohi in 0..oh {
                    for owi in 0..ow {
                        let mut acc = 0i32;
                        for cl in 0..cw {
                            let ci = if depthwise { oc } else { cl };
                            for ki in 0..kh {
                                for kj in 0..kw {
                                    let ih = (ohi * stride + ki) as isize - pad as isize;
                                    let iw = (owi * stride + kj) as isize - pad as isize;
                                    let qa = if ih < 0
                                        || iw < 0
                                        || ih >= h as isize
                                        || iw >= wd as isize
                                    {
                                        zp
                                    } else {
                                        code(
                                            x.as_slice()[((ni * c + ci) * h + ih as usize) * wd
                                                + iw as usize],
                                        )
                                    };
                                    acc += qa * qrow[(cl * kh + ki) * kw + kj];
                                }
                            }
                        }
                        let mut v = deq * (acc - zp * wsum) as f32 + b;
                        if relu {
                            v = v.max(0.0);
                        }
                        out.as_mut_slice()[((ni * o + oc) * oh + ohi) * ow + owi] = v;
                    }
                }
            }
        }
        out
    }

    /// Expands a depthwise weight `[C, 1, KH, KW]` into the equivalent dense
    /// `[C, C, KH, KW]` block-diagonal weight (channel `c`'s taps on the
    /// diagonal, zeros elsewhere) — how depthwise units were once quantized.
    fn expand_depthwise_dense(weight: &Tensor) -> Tensor {
        let (c, kh, kw) = (weight.dim(0), weight.dim(2), weight.dim(3));
        let mut dense = Tensor::zeros(&[c, c, kh, kw]);
        let k = kh * kw;
        for ch in 0..c {
            let taps = &weight.as_slice()[ch * k..(ch + 1) * k];
            dense.as_mut_slice()[(ch * c + ch) * k..(ch * c + ch) * k + k].copy_from_slice(taps);
        }
        dense
    }

    fn assert_bits(a: &Tensor, b: &Tensor, label: &str) {
        assert_eq!(a.dims(), b.dims(), "{label}: dims");
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: element {i}: {x} vs {y}");
        }
    }

    /// Inputs with a negative range (nonzero zero point) and a bias, so the
    /// zero-point correction and the epilogue are both exercised.
    fn operands(
        n: usize,
        c: usize,
        hw: (usize, usize),
        o: usize,
        w_dims: [usize; 4],
        rng: &mut StdRng,
    ) -> (Tensor, Tensor, Tensor, ActQuant) {
        let x = init::randn(&[n, c, hw.0, hw.1], 1.0, rng);
        let w = init::randn(&w_dims, 0.3, rng);
        let bias = init::randn(&[o], 0.2, rng);
        let act = ActQuant::from_tensor(&x);
        (x, w, bias, act)
    }

    #[test]
    fn every_layout_equals_the_integer_reference_bitwise() {
        let mut rng = StdRng::seed_from_u64(21);
        for n in [1usize, 3] {
            for relu in [false, true] {
                // Dense 3×3 (tap quads), stride 1 and 2, with an O remainder.
                for &(c, o, stride) in &[(3usize, 22usize, 1usize), (5, 3, 2), (22, 5, 1)] {
                    let (x, w, b, act) = operands(n, c, (9, 11), o, [o, c, 3, 3], &mut rng);
                    let qw = QuantConv2dWeight::quantize(&w).unwrap();
                    let got = conv2d_forward_q8(&x, &qw, act, Some(&b), stride, 1, relu).unwrap();
                    let want = naive_q8(&x, &w, false, act, Some(&b), stride, 1, relu);
                    assert_bits(
                        &got,
                        &want,
                        &format!("3x3 c{c} o{o} s{stride} n{n} relu {relu}"),
                    );
                }
                // 1×1 (channel quads) at stride 1, stride 2 and pad 1.
                for c in [3usize, 5, 22, 91] {
                    for o in [3usize, 22, 94] {
                        for (stride, pad) in [(1usize, 0usize), (2, 0), (1, 1)] {
                            let (x, w, b, act) = operands(n, c, (5, 7), o, [o, c, 1, 1], &mut rng);
                            let qw = QuantConv2dWeight::quantize(&w).unwrap();
                            let got = conv2d_forward_q8(&x, &qw, act, Some(&b), stride, pad, relu)
                                .unwrap();
                            let want = naive_q8(&x, &w, false, act, Some(&b), stride, pad, relu);
                            assert_bits(
                                &got,
                                &want,
                                &format!("1x1 c{c} o{o} s{stride} p{pad} n{n} relu {relu}"),
                            );
                        }
                    }
                }
                // Depthwise 3×3 at stride 1 and 2, and 5×5: equal to the
                // integer reference and to the dense kernel on the
                // block-diagonal expansion.
                for &(c, k, stride, pad) in
                    &[(7usize, 3usize, 1usize, 1usize), (6, 3, 2, 1), (5, 5, 1, 2)]
                {
                    let (x, w, b, act) = operands(n, c, (10, 13), c, [c, 1, k, k], &mut rng);
                    let qw = QuantConv2dWeight::quantize_depthwise(&w).unwrap();
                    assert!(qw.is_depthwise());
                    let got = conv2d_forward_q8(&x, &qw, act, Some(&b), stride, pad, relu).unwrap();
                    let label = format!("dw {k}x{k} c{c} s{stride} n{n} relu {relu}");
                    assert_bits(
                        &got,
                        &naive_q8(&x, &w, true, act, Some(&b), stride, pad, relu),
                        &label,
                    );
                    let dense = QuantConv2dWeight::quantize(&expand_depthwise_dense(&w)).unwrap();
                    let expanded =
                        conv2d_forward_q8(&x, &dense, act, Some(&b), stride, pad, relu).unwrap();
                    assert_bits(&got, &expanded, &format!("{label} vs block-diagonal"));
                }
            }
        }
    }

    #[test]
    fn out_of_range_and_non_finite_inputs_quantize_like_the_scalar_cast() {
        // A range narrower than the data clamps codes at both ends, and NaN
        // and ±Inf pixels take the saturating cast's codes (0, 255, 0) on
        // the vectorized quantizers too.
        let mut rng = StdRng::seed_from_u64(22);
        let act = ActQuant::from_range(-0.5, 0.5);
        for (w_dims, depthwise) in [
            ([6, 5, 3, 3], false),
            ([6, 5, 1, 1], false),
            ([5, 1, 3, 3], true),
        ] {
            let mut x = init::randn(&[2, 5, 9, 17], 1.0, &mut rng);
            for (i, v) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY]
                .into_iter()
                .enumerate()
            {
                x.as_mut_slice()[37 * i + 3] = v;
            }
            let w = init::randn(&w_dims, 0.3, &mut rng);
            let qw = if depthwise {
                QuantConv2dWeight::quantize_depthwise(&w).unwrap()
            } else {
                QuantConv2dWeight::quantize(&w).unwrap()
            };
            let pad = w_dims[2] / 2;
            let got = conv2d_forward_q8(&x, &qw, act, None, 1, pad, false).unwrap();
            let want = naive_q8(&x, &w, depthwise, act, None, 1, pad, false);
            assert_bits(&got, &want, &format!("{w_dims:?}"));
        }
    }

    #[test]
    fn depthwise_rejects_dense_weights() {
        let w = Tensor::zeros(&[4, 2, 3, 3]);
        assert!(QuantConv2dWeight::quantize_depthwise(&w).is_err());
        assert!(QuantConv2dWeight::quantize_depthwise(&Tensor::zeros(&[4, 3, 3])).is_err());
        let dw = QuantConv2dWeight::quantize_depthwise(&Tensor::zeros(&[4, 1, 3, 3])).unwrap();
        assert_eq!((dw.in_channels(), dw.out_channels()), (4, 4));
        let x = Tensor::zeros(&[1, 3, 6, 6]);
        let act = ActQuant::from_tensor(&x);
        assert!(conv2d_forward_q8(&x, &dw, act, None, 1, 1, false).is_err());
    }

    #[test]
    fn weights_hold_only_real_taps() {
        // Depthwise: one quad per kernel row per channel, no C×C expansion.
        let dw = QuantConv2dWeight::quantize_depthwise(&Tensor::zeros(&[94, 1, 3, 3])).unwrap();
        assert_eq!(dw.packed_bytes(), 94 * 3 * 4 + 94 * 8);
        // 1×1: quads over input channels, rows padded to a multiple of 4.
        let pw = QuantConv2dWeight::quantize(&Tensor::zeros(&[94, 91, 1, 1])).unwrap();
        assert_eq!(pw.packed_bytes(), 96 * 92 + 94 * 8);
    }

    /// Random u8 activations and ±64 weights: the full operand ranges the
    /// kernels are specified for.
    fn random_bytes(len: usize, rng: &mut StdRng) -> (Vec<u8>, Vec<i8>) {
        let a = (0..len).map(|_| rng.gen_range(0u32..256) as u8).collect();
        let w = (0..len).map(|_| rng.gen_range(-64i32..=64) as i8).collect();
        (a, w)
    }

    #[test]
    fn simd_and_portable_microkernels_agree() {
        if !have_avx2() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(33);
        // GEMM: 4 rows × 8 positions over `quads` quads, at every block.
        for quads in [1usize, 3, 23] {
            let owr = 3 * POS_BLOCK;
            let (panel, _) = random_bytes(quads * owr * 4, &mut rng);
            let (_, rows) = random_bytes(ROW_BLOCK * quads * 4, &mut rng);
            for p0 in (0..owr).step_by(POS_BLOCK) {
                let (mut simd, mut portable) =
                    ([[0; POS_BLOCK]; ROW_BLOCK], [[1; POS_BLOCK]; ROW_BLOCK]);
                #[cfg(target_arch = "x86_64")]
                // SAFETY: AVX2 checked above; the panel holds
                // `quads * owr * 4` bytes and the rows `4 * quads * 4`.
                #[allow(unsafe_code)]
                unsafe {
                    avx2::gemm_block4(panel.as_ptr(), rows.as_ptr(), quads, owr, p0, &mut simd);
                }
                gemm_block_portable(&panel, &rows, quads, owr, p0, &mut portable);
                assert_eq!(simd, portable, "gemm quads {quads} p0 {p0}");
            }
        }
        // The whole 1×1 path: vectorized channel panel, GEMM and
        // dequantization against their portable twins, with a channel and
        // a position tail.
        let (x, w, b, act) = operands(1, 7, (3, 5), 6, [6, 7, 1, 1], &mut rng);
        let qw = QuantConv2dWeight::quantize(&w).unwrap();
        let epi = Dequant {
            act_scale: act.scale,
            zp: i32::from(act.zero_point),
            bias: Some(b.as_slice()),
            relu: true,
        };
        let g = Geom {
            c: 7,
            h: 3,
            w: 5,
            oh: 3,
            ow: 5,
            stride: 1,
            pad: 0,
        };
        let owr = 2 * POS_BLOCK;
        let mut out = [vec![0.0f32; 6 * 15], vec![1.0f32; 6 * 15]];
        for (o, simd) in out.iter_mut().zip([true, false]) {
            let mut panel = vec![0u8; qw.quads * owr * 4];
            channel_panel(x.as_slice(), g, Codes::new(act), &mut panel, owr, simd);
            gemm_positions(&panel, &qw, owr, 15, simd, &epi, (15, 0), o);
        }
        assert_eq!(out[0], out[1], "1x1 path");
        // Depthwise: 3×3 and 5×5 taps, stride 1 and 2, a width with a
        // quantization tail and a position-block tail. With unit scale,
        // zero point 0 and `deq = 1` the kernel re-quantizes each byte
        // value to itself and returns its accumulators as exact floats.
        let codes = Codes::new(ActQuant {
            scale: 1.0,
            zero_point: 0,
        });
        let ce = ChannelDequant {
            deq: 1.0,
            corr: 0,
            b: 0.0,
            relu: false,
        };
        for (k, pad) in [(3usize, 1usize), (5, 2)] {
            for stride in [1usize, 2] {
                let (h, w) = (7, 13);
                let (oh, ow) = (
                    conv_output_size(h, k, stride, pad).unwrap(),
                    conv_output_size(w, k, stride, pad).unwrap(),
                );
                let g = Geom {
                    c: 1,
                    h,
                    w,
                    oh,
                    ow,
                    stride,
                    pad,
                };
                let row_quads = k.div_ceil(4);
                let wpad = g.padded_pitch(row_quads);
                let (bytes, _) = random_bytes(h * w, &mut rng);
                let src: Vec<f32> = bytes.iter().map(|&b| f32::from(b)).collect();
                let (_, taps) = random_bytes(k * row_quads * 4, &mut rng);
                let mut out = [vec![0.0f32; oh * ow], vec![1.0f32; oh * ow]];
                for (o, simd) in out.iter_mut().zip([true, false]) {
                    let mut plane = vec![7u8; (h + 2 * pad) * wpad];
                    let geom = (wpad, k, row_quads);
                    dw_plane(&src, &mut plane, &taps, g, geom, codes, ce, simd, o);
                }
                assert_eq!(out[0], out[1], "dw k{k} s{stride}");
                assert!(out[0]
                    .iter()
                    .all(|v| v.fract() == 0.0 && v.abs() < (1 << 24) as f32));
            }
        }
    }

    #[test]
    fn relu_epilogue_clamps() {
        let mut rng = StdRng::seed_from_u64(10);
        let x = init::randn(&[1, 3, 6, 6], 1.0, &mut rng);
        let w = init::randn(&[4, 3, 3, 3], 0.3, &mut rng);
        let qw = QuantConv2dWeight::quantize(&w).unwrap();
        let act = ActQuant::from_tensor(&x);
        let y = conv2d_forward_q8(&x, &qw, act, None, 1, 1, true).unwrap();
        assert!(y.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn zero_point_covers_negative_ranges() {
        let a = ActQuant::from_range(-2.0, 6.0);
        assert!(a.zero_point > 0);
        // Real 0.0 must round-trip exactly through the zero point.
        assert_eq!(a.quantize(0.0), a.zero_point);
    }

    #[test]
    fn byte_arena_reaches_steady_state() {
        let mut rng = StdRng::seed_from_u64(11);
        let x = init::randn(&[1, 4, 10, 10], 1.0, &mut rng);
        let w = init::randn(&[8, 4, 3, 3], 0.3, &mut rng);
        let qw = QuantConv2dWeight::quantize(&w).unwrap();
        let act = ActQuant::from_tensor(&x);
        let a = conv2d_forward_q8(&x, &qw, act, None, 1, 1, false).unwrap();
        let b = conv2d_forward_q8(&x, &qw, act, None, 1, 1, false).unwrap();
        assert_eq!(
            a.as_slice(),
            b.as_slice(),
            "quantized forward must be deterministic"
        );
    }
}

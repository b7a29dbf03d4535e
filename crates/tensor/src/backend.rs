//! Pluggable compute backends: one kernel contract, two implementations.
//!
//! Every numerical kernel in [`crate::ops`] dispatches through a [`Backend`]:
//!
//! * [`Naive`] — the original single-threaded scalar loops, kept verbatim as
//!   the bit-exact reference oracle that parity tests compare against;
//! * [`Parallel`] — cache-blocked matmul and pool-parallel convolution /
//!   elementwise / reduction kernels riding the persistent workers in
//!   [`crate::par`] (see `ops::parallel` for the determinism contract).
//!
//! The process-wide default backend is [`Parallel`] (TBNet's whole argument
//! is throughput), overridable three ways, in precedence order:
//!
//! 1. [`set_global`] at runtime (e.g. a bench pinning a backend);
//! 2. the `TBNET_BACKEND` environment variable (`naive` / `parallel`);
//! 3. the built-in default.
//!
//! Layers in `tbnet-nn` additionally carry a per-layer [`BackendKind`] so a
//! model can be pinned to a backend independently of the global choice.

use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU8, Ordering};

use serde::{Deserialize, Serialize};

use crate::ops::pool::MaxPoolIndices;
use crate::ops::{Conv2dGrads, Epilogue, PackedConv2dWeight};
use crate::{ops, Result, Tensor};

/// The kernel contract every compute backend implements.
///
/// Default method bodies run the naive reference kernels, so a backend only
/// overrides what it accelerates. All methods validate shapes exactly like
/// the original free functions.
pub trait Backend: fmt::Debug + Send + Sync {
    /// Short human-readable backend name (used in bench reports).
    fn name(&self) -> &'static str;

    /// Matrix product `a @ b`; see [`ops::matmul()`].
    ///
    /// # Errors
    ///
    /// Rank/dimension errors as documented on [`ops::matmul()`].
    fn matmul(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        ops::matmul::matmul_naive(a, b)
    }

    /// Matrix product `aᵀ @ b`; see [`ops::matmul_transpose_a`].
    ///
    /// # Errors
    ///
    /// Rank/dimension errors as documented on [`ops::matmul_transpose_a`].
    fn matmul_transpose_a(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        ops::matmul::matmul_transpose_a_naive(a, b)
    }

    /// Matrix product `a @ bᵀ`; see [`ops::matmul_transpose_b`].
    ///
    /// # Errors
    ///
    /// Rank/dimension errors as documented on [`ops::matmul_transpose_b`].
    fn matmul_transpose_b(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        ops::matmul::matmul_transpose_b_naive(a, b)
    }

    /// 2-D convolution forward; see [`ops::conv2d_forward`].
    ///
    /// # Errors
    ///
    /// Shape/geometry errors as documented on [`ops::conv2d_forward`].
    fn conv2d_forward(
        &self,
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        stride: usize,
        pad: usize,
    ) -> Result<Tensor> {
        ops::conv::conv2d_forward_naive(input, weight, bias, stride, pad)
    }

    /// 2-D convolution backward; see [`ops::conv2d_backward`].
    ///
    /// # Errors
    ///
    /// Shape/geometry errors as documented on [`ops::conv2d_backward`].
    fn conv2d_backward(
        &self,
        input: &Tensor,
        weight: &Tensor,
        grad_out: &Tensor,
        stride: usize,
        pad: usize,
        has_bias: bool,
    ) -> Result<Conv2dGrads> {
        ops::conv::conv2d_backward_naive(input, weight, grad_out, stride, pad, has_bias)
    }

    /// 2-D convolution forward over a pre-packed weight
    /// ([`PackedConv2dWeight`]). Layers cache the pack across calls so
    /// backends with a fused engine skip per-call repacking; backends
    /// without one fall back to the plain kernel on the embedded original
    /// weight, so results are identical either way.
    ///
    /// # Errors
    ///
    /// Shape/geometry errors as documented on [`ops::conv2d_forward`].
    fn conv2d_forward_packed(
        &self,
        input: &Tensor,
        packed: &PackedConv2dWeight,
        bias: Option<&Tensor>,
        stride: usize,
        pad: usize,
    ) -> Result<Tensor> {
        self.conv2d_forward(input, packed.weight(), bias, stride, pad)
    }

    /// Packed convolution forward with a fused [`Epilogue`] (bias +
    /// activation + optional elementwise merge applied while output tiles
    /// are cache-hot). The default body composes the packed forward with
    /// the naive epilogue applier, so it stays the bit-exact reference the
    /// fused engines are tested against.
    ///
    /// # Errors
    ///
    /// Shape/geometry errors as documented on [`ops::conv2d_forward_fused`].
    fn conv2d_forward_fused(
        &self,
        input: &Tensor,
        packed: &PackedConv2dWeight,
        bias: Option<&Tensor>,
        stride: usize,
        pad: usize,
        epilogue: Epilogue<'_>,
    ) -> Result<Tensor> {
        let mut out = self.conv2d_forward_packed(input, packed, bias, stride, pad)?;
        ops::conv::apply_epilogue(&mut out, epilogue)?;
        Ok(out)
    }

    /// 2-D convolution backward over a pre-packed weight; see
    /// [`Backend::conv2d_forward_packed`] for the packing contract.
    ///
    /// # Errors
    ///
    /// Shape/geometry errors as documented on [`ops::conv2d_backward`].
    fn conv2d_backward_packed(
        &self,
        input: &Tensor,
        packed: &PackedConv2dWeight,
        grad_out: &Tensor,
        stride: usize,
        pad: usize,
        has_bias: bool,
    ) -> Result<Conv2dGrads> {
        self.conv2d_backward(input, packed.weight(), grad_out, stride, pad, has_bias)
    }

    /// Depthwise 2-D convolution forward: weight `[C, 1, KH, KW]`, one
    /// kernel per channel, no cross-channel reduction; see
    /// [`ops::conv2d_depthwise_forward`].
    ///
    /// # Errors
    ///
    /// Shape/geometry errors as documented on
    /// [`ops::conv2d_depthwise_forward`].
    fn conv2d_depthwise_forward(
        &self,
        input: &Tensor,
        packed: &PackedConv2dWeight,
        bias: Option<&Tensor>,
        stride: usize,
        pad: usize,
    ) -> Result<Tensor> {
        ops::conv::conv2d_depthwise_forward_naive(input, packed.weight(), bias, stride, pad)
    }

    /// Depthwise forward with a fused [`Epilogue`]. The default body
    /// composes the plain depthwise forward with the naive epilogue
    /// applier, so it stays the reference the fused engine is tested
    /// against.
    ///
    /// # Errors
    ///
    /// Shape/geometry errors as documented on
    /// [`ops::conv2d_depthwise_forward_fused`].
    fn conv2d_depthwise_forward_fused(
        &self,
        input: &Tensor,
        packed: &PackedConv2dWeight,
        bias: Option<&Tensor>,
        stride: usize,
        pad: usize,
        epilogue: Epilogue<'_>,
    ) -> Result<Tensor> {
        let mut out = self.conv2d_depthwise_forward(input, packed, bias, stride, pad)?;
        ops::conv::apply_epilogue(&mut out, epilogue)?;
        Ok(out)
    }

    /// Depthwise 2-D convolution backward; grad-weight is `[C, 1, KH, KW]`.
    ///
    /// # Errors
    ///
    /// Shape/geometry errors as documented on
    /// [`ops::conv2d_depthwise_backward`].
    fn conv2d_depthwise_backward(
        &self,
        input: &Tensor,
        packed: &PackedConv2dWeight,
        grad_out: &Tensor,
        stride: usize,
        pad: usize,
        has_bias: bool,
    ) -> Result<Conv2dGrads> {
        ops::conv::conv2d_depthwise_backward_naive(
            input,
            packed.weight(),
            grad_out,
            stride,
            pad,
            has_bias,
        )
    }

    /// Elementwise `a + b`.
    ///
    /// # Errors
    ///
    /// Shape errors as documented on [`ops::add`].
    fn add(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        ops::elementwise::add_naive(a, b)
    }

    /// Elementwise `a - b`.
    ///
    /// # Errors
    ///
    /// Shape errors as documented on [`ops::sub`].
    fn sub(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        ops::elementwise::sub_naive(a, b)
    }

    /// Elementwise `a ⊙ b`.
    ///
    /// # Errors
    ///
    /// Shape errors as documented on [`ops::hadamard`].
    fn hadamard(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        ops::elementwise::hadamard_naive(a, b)
    }

    /// In-place `a += b`.
    ///
    /// # Errors
    ///
    /// Shape errors as documented on [`ops::add_assign`].
    fn add_assign(&self, a: &mut Tensor, b: &Tensor) -> Result<()> {
        ops::elementwise::add_assign_naive(a, b)
    }

    /// In-place `a += alpha * b`.
    ///
    /// # Errors
    ///
    /// Shape errors as documented on [`ops::add_scaled`].
    fn add_scaled(&self, a: &mut Tensor, b: &Tensor, alpha: f32) -> Result<()> {
        ops::elementwise::add_scaled_naive(a, b, alpha)
    }

    /// Returns `alpha * a`.
    fn scale(&self, a: &Tensor, alpha: f32) -> Tensor {
        ops::elementwise::scale_naive(a, alpha)
    }

    /// Applies `f` elementwise.
    fn unary(&self, a: &Tensor, f: &(dyn Fn(f32) -> f32 + Sync)) -> Tensor {
        ops::elementwise::unary_naive(a, f)
    }

    /// Broadcast-add a `[D]` bias onto each row of `[N, D]`.
    ///
    /// # Errors
    ///
    /// Shape errors as documented on [`ops::add_bias_rows`].
    fn add_bias_rows(&self, out: &mut Tensor, bias: &Tensor) -> Result<()> {
        ops::elementwise::add_bias_rows_naive(out, bias)
    }

    /// Per-channel mean/variance of `[N, C, H, W]`.
    ///
    /// # Errors
    ///
    /// Rank/geometry errors as documented on [`ops::channel_mean_var`].
    fn channel_mean_var(&self, input: &Tensor) -> Result<(Tensor, Tensor)> {
        ops::reduce::channel_mean_var_naive(input)
    }

    /// Per-channel sum of `[N, C, H, W]`.
    ///
    /// # Errors
    ///
    /// Rank errors as documented on [`ops::channel_sum`].
    fn channel_sum(&self, input: &Tensor) -> Result<Tensor> {
        ops::reduce::channel_sum_naive(input)
    }

    /// Sum over the leading axis of `[N, D]`.
    ///
    /// # Errors
    ///
    /// Rank errors as documented on [`ops::sum_axis0`].
    fn sum_axis0(&self, input: &Tensor) -> Result<Tensor> {
        ops::reduce::sum_axis0_naive(input)
    }

    /// Row-wise softmax of `[N, D]`.
    ///
    /// # Errors
    ///
    /// Rank errors as documented on [`ops::softmax_rows`].
    fn softmax_rows(&self, logits: &Tensor) -> Result<Tensor> {
        ops::reduce::softmax_rows_naive(logits)
    }

    /// BatchNorm normalization `(x - mean) * inv_std` per channel.
    ///
    /// # Errors
    ///
    /// Shape errors as documented on [`ops::bn_normalize`].
    fn bn_normalize(&self, input: &Tensor, mean: &Tensor, inv_std: &Tensor) -> Result<Tensor> {
        ops::channel::bn_normalize_naive(input, mean, inv_std)
    }

    /// Channel-wise affine `scale * x + shift`.
    ///
    /// # Errors
    ///
    /// Shape errors as documented on [`ops::channel_affine`].
    fn channel_affine(&self, input: &Tensor, scale: &Tensor, shift: &Tensor) -> Result<Tensor> {
        ops::channel::channel_affine_naive(input, scale, shift)
    }

    /// BatchNorm backward reductions `(Σ dy, Σ dy·x̂)` per channel.
    ///
    /// # Errors
    ///
    /// Shape errors as documented on [`ops::bn_backward_reduce`].
    fn bn_backward_reduce(&self, grad_out: &Tensor, x_hat: &Tensor) -> Result<(Tensor, Tensor)> {
        ops::channel::bn_backward_reduce_naive(grad_out, x_hat)
    }

    /// BatchNorm input gradient.
    ///
    /// # Errors
    ///
    /// Shape errors as documented on [`ops::bn_input_grad`].
    fn bn_input_grad(
        &self,
        grad_out: &Tensor,
        x_hat: &Tensor,
        gamma: &Tensor,
        inv_std: &Tensor,
        sum_dy: &Tensor,
        sum_dy_xhat: &Tensor,
    ) -> Result<Tensor> {
        ops::channel::bn_input_grad_naive(grad_out, x_hat, gamma, inv_std, sum_dy, sum_dy_xhat)
    }

    /// Max pooling forward; see [`ops::maxpool2d_forward`].
    ///
    /// # Errors
    ///
    /// Rank/geometry errors as documented on [`ops::maxpool2d_forward`].
    fn maxpool2d_forward(&self, input: &Tensor, k: usize) -> Result<(Tensor, MaxPoolIndices)> {
        ops::pool::maxpool2d_forward_naive(input, k)
    }

    /// Inference max pooling: forward without argmax bookkeeping; see
    /// [`ops::maxpool2d_eval`].
    ///
    /// # Errors
    ///
    /// Rank/geometry errors as documented on [`ops::maxpool2d_forward`].
    fn maxpool2d_eval(&self, input: &Tensor, k: usize) -> Result<Tensor> {
        ops::pool::maxpool2d_eval_naive(input, k)
    }

    /// Max pooling backward; see [`ops::maxpool2d_backward`].
    ///
    /// # Errors
    ///
    /// Length errors as documented on [`ops::maxpool2d_backward`].
    fn maxpool2d_backward(&self, grad_out: &Tensor, indices: &MaxPoolIndices) -> Result<Tensor> {
        ops::pool::maxpool2d_backward_naive(grad_out, indices)
    }

    /// Global average pooling forward; see [`ops::avgpool2d_global_forward`].
    ///
    /// # Errors
    ///
    /// Rank errors as documented on [`ops::avgpool2d_global_forward`].
    fn avgpool2d_global_forward(&self, input: &Tensor) -> Result<Tensor> {
        ops::pool::avgpool2d_global_forward_naive(input)
    }

    /// Global average pooling backward; see
    /// [`ops::avgpool2d_global_backward`].
    ///
    /// # Errors
    ///
    /// Shape errors as documented on [`ops::avgpool2d_global_backward`].
    fn avgpool2d_global_backward(&self, grad_out: &Tensor, input_dims: &[usize]) -> Result<Tensor> {
        ops::pool::avgpool2d_global_backward_naive(grad_out, input_dims)
    }
}

/// The single-threaded reference backend (the seed implementation,
/// unchanged). Serves as the bit-exact oracle for parity tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct Naive;

impl Backend for Naive {
    fn name(&self) -> &'static str {
        "naive"
    }
}

/// The multi-threaded backend: cache-blocked matmul, per-sample parallel
/// convolution and chunk-parallel elementwise/reduction kernels.
#[derive(Debug, Clone, Copy, Default)]
pub struct Parallel;

impl Backend for Parallel {
    fn name(&self) -> &'static str {
        "parallel"
    }

    fn matmul(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        ops::parallel::matmul(a, b)
    }

    fn matmul_transpose_a(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        ops::parallel::matmul_transpose_a(a, b)
    }

    fn matmul_transpose_b(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        ops::parallel::matmul_transpose_b(a, b)
    }

    fn conv2d_forward(
        &self,
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        stride: usize,
        pad: usize,
    ) -> Result<Tensor> {
        ops::parallel::conv2d_forward(input, weight, bias, stride, pad)
    }

    fn conv2d_backward(
        &self,
        input: &Tensor,
        weight: &Tensor,
        grad_out: &Tensor,
        stride: usize,
        pad: usize,
        has_bias: bool,
    ) -> Result<Conv2dGrads> {
        ops::parallel::conv2d_backward(input, weight, grad_out, stride, pad, has_bias)
    }

    fn conv2d_forward_packed(
        &self,
        input: &Tensor,
        packed: &PackedConv2dWeight,
        bias: Option<&Tensor>,
        stride: usize,
        pad: usize,
    ) -> Result<Tensor> {
        ops::parallel::conv2d_forward_packed(input, packed, bias, stride, pad)
    }

    fn conv2d_forward_fused(
        &self,
        input: &Tensor,
        packed: &PackedConv2dWeight,
        bias: Option<&Tensor>,
        stride: usize,
        pad: usize,
        epilogue: Epilogue<'_>,
    ) -> Result<Tensor> {
        ops::parallel::conv2d_forward_packed_fused(input, packed, bias, stride, pad, epilogue)
    }

    fn conv2d_backward_packed(
        &self,
        input: &Tensor,
        packed: &PackedConv2dWeight,
        grad_out: &Tensor,
        stride: usize,
        pad: usize,
        has_bias: bool,
    ) -> Result<Conv2dGrads> {
        ops::parallel::conv2d_backward_packed(input, packed, grad_out, stride, pad, has_bias)
    }

    fn conv2d_depthwise_forward(
        &self,
        input: &Tensor,
        packed: &PackedConv2dWeight,
        bias: Option<&Tensor>,
        stride: usize,
        pad: usize,
    ) -> Result<Tensor> {
        ops::parallel::conv2d_depthwise_forward(input, packed, bias, stride, pad, Epilogue::None)
    }

    fn conv2d_depthwise_forward_fused(
        &self,
        input: &Tensor,
        packed: &PackedConv2dWeight,
        bias: Option<&Tensor>,
        stride: usize,
        pad: usize,
        epilogue: Epilogue<'_>,
    ) -> Result<Tensor> {
        ops::parallel::conv2d_depthwise_forward(input, packed, bias, stride, pad, epilogue)
    }

    fn conv2d_depthwise_backward(
        &self,
        input: &Tensor,
        packed: &PackedConv2dWeight,
        grad_out: &Tensor,
        stride: usize,
        pad: usize,
        has_bias: bool,
    ) -> Result<Conv2dGrads> {
        ops::parallel::conv2d_depthwise_backward(input, packed, grad_out, stride, pad, has_bias)
    }

    fn add(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        ops::parallel::add(a, b)
    }

    fn sub(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        ops::parallel::sub(a, b)
    }

    fn hadamard(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        ops::parallel::hadamard(a, b)
    }

    fn add_assign(&self, a: &mut Tensor, b: &Tensor) -> Result<()> {
        ops::parallel::add_assign(a, b)
    }

    fn add_scaled(&self, a: &mut Tensor, b: &Tensor, alpha: f32) -> Result<()> {
        ops::parallel::add_scaled(a, b, alpha)
    }

    fn scale(&self, a: &Tensor, alpha: f32) -> Tensor {
        ops::parallel::scale(a, alpha)
    }

    fn unary(&self, a: &Tensor, f: &(dyn Fn(f32) -> f32 + Sync)) -> Tensor {
        ops::parallel::unary(a, f)
    }

    fn add_bias_rows(&self, out: &mut Tensor, bias: &Tensor) -> Result<()> {
        ops::parallel::add_bias_rows(out, bias)
    }

    fn channel_mean_var(&self, input: &Tensor) -> Result<(Tensor, Tensor)> {
        ops::parallel::channel_mean_var(input)
    }

    fn channel_sum(&self, input: &Tensor) -> Result<Tensor> {
        ops::parallel::channel_sum(input)
    }

    fn sum_axis0(&self, input: &Tensor) -> Result<Tensor> {
        ops::parallel::sum_axis0(input)
    }

    fn softmax_rows(&self, logits: &Tensor) -> Result<Tensor> {
        ops::parallel::softmax_rows(logits)
    }

    fn bn_normalize(&self, input: &Tensor, mean: &Tensor, inv_std: &Tensor) -> Result<Tensor> {
        ops::parallel::bn_normalize(input, mean, inv_std)
    }

    fn channel_affine(&self, input: &Tensor, scale: &Tensor, shift: &Tensor) -> Result<Tensor> {
        ops::parallel::channel_affine(input, scale, shift)
    }

    fn bn_backward_reduce(&self, grad_out: &Tensor, x_hat: &Tensor) -> Result<(Tensor, Tensor)> {
        ops::parallel::bn_backward_reduce(grad_out, x_hat)
    }

    fn bn_input_grad(
        &self,
        grad_out: &Tensor,
        x_hat: &Tensor,
        gamma: &Tensor,
        inv_std: &Tensor,
        sum_dy: &Tensor,
        sum_dy_xhat: &Tensor,
    ) -> Result<Tensor> {
        ops::parallel::bn_input_grad(grad_out, x_hat, gamma, inv_std, sum_dy, sum_dy_xhat)
    }

    fn maxpool2d_forward(&self, input: &Tensor, k: usize) -> Result<(Tensor, MaxPoolIndices)> {
        ops::parallel::maxpool2d_forward(input, k)
    }

    fn maxpool2d_eval(&self, input: &Tensor, k: usize) -> Result<Tensor> {
        ops::parallel::maxpool2d_eval(input, k)
    }

    fn maxpool2d_backward(&self, grad_out: &Tensor, indices: &MaxPoolIndices) -> Result<Tensor> {
        ops::parallel::maxpool2d_backward(grad_out, indices)
    }

    fn avgpool2d_global_forward(&self, input: &Tensor) -> Result<Tensor> {
        ops::parallel::avgpool2d_global_forward(input)
    }

    fn avgpool2d_global_backward(&self, grad_out: &Tensor, input_dims: &[usize]) -> Result<Tensor> {
        ops::parallel::avgpool2d_global_backward(grad_out, input_dims)
    }
}

static NAIVE: Naive = Naive;
static PARALLEL: Parallel = Parallel;

/// Identifies a backend; the value carried through layer constructors and
/// configs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BackendKind {
    /// Single-threaded reference kernels.
    Naive,
    /// Blocked/threaded kernels.
    Parallel,
}

impl BackendKind {
    /// The static backend instance for this kind.
    pub fn imp(self) -> &'static dyn Backend {
        match self {
            BackendKind::Naive => &NAIVE,
            BackendKind::Parallel => &PARALLEL,
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.imp().name())
    }
}

impl FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "naive" => Ok(BackendKind::Naive),
            "parallel" => Ok(BackendKind::Parallel),
            other => Err(format!(
                "unknown backend {other:?} (expected \"naive\" or \"parallel\")"
            )),
        }
    }
}

const KIND_UNSET: u8 = 0;
const KIND_NAIVE: u8 = 1;
const KIND_PARALLEL: u8 = 2;

static GLOBAL_KIND: AtomicU8 = AtomicU8::new(KIND_UNSET);

fn kind_from_env() -> BackendKind {
    match std::env::var("TBNET_BACKEND") {
        Ok(v) => v.parse().unwrap_or_else(|e: String| {
            eprintln!("warning: TBNET_BACKEND ignored: {e}; using parallel");
            BackendKind::Parallel
        }),
        Err(_) => BackendKind::Parallel,
    }
}

/// The process-wide default backend kind.
pub fn global_kind() -> BackendKind {
    match GLOBAL_KIND.load(Ordering::Relaxed) {
        KIND_NAIVE => BackendKind::Naive,
        KIND_PARALLEL => BackendKind::Parallel,
        _ => {
            let kind = kind_from_env();
            set_global(kind);
            kind
        }
    }
}

/// Overrides the process-wide default backend.
pub fn set_global(kind: BackendKind) {
    let v = match kind {
        BackendKind::Naive => KIND_NAIVE,
        BackendKind::Parallel => KIND_PARALLEL,
    };
    GLOBAL_KIND.store(v, Ordering::Relaxed);
}

/// The process-wide default backend instance (what `ops::*` free functions
/// dispatch to).
pub fn global() -> &'static dyn Backend {
    global_kind().imp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_roundtrips_through_str() {
        assert_eq!("naive".parse::<BackendKind>().unwrap(), BackendKind::Naive);
        assert_eq!(
            "Parallel".parse::<BackendKind>().unwrap(),
            BackendKind::Parallel
        );
        assert!("gpu".parse::<BackendKind>().is_err());
        assert_eq!(BackendKind::Naive.to_string(), "naive");
        assert_eq!(BackendKind::Parallel.to_string(), "parallel");
    }

    #[test]
    fn global_kind_is_settable() {
        let before = global_kind();
        set_global(BackendKind::Naive);
        assert_eq!(global_kind(), BackendKind::Naive);
        assert_eq!(global().name(), "naive");
        set_global(before);
    }

    #[test]
    fn backends_expose_names() {
        assert_eq!(BackendKind::Naive.imp().name(), "naive");
        assert_eq!(BackendKind::Parallel.imp().name(), "parallel");
    }
}

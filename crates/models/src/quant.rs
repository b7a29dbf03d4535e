//! Int8 image of the exposed rich branch `M_R`.
//!
//! TBNet's threat model leaves the rich branch in normal-world memory on
//! purpose — its weights are public by assumption — so its inference
//! precision is a pure speed/size trade. [`QuantBranch`] snapshots a
//! [`ChainNet`] into per-unit quantized convolutions: the BatchNorm is
//! folded into the weight first (same fold as the f32 fast path), then the
//! folded weight is quantized per output channel to int8 and executed with
//! the u8×i8 integer kernels in `tbnet_tensor::ops::qconv`. Depthwise units
//! are quantized with `QuantConv2dWeight::quantize_depthwise` and run on
//! the per-channel int8 stencil, so the snapshot stores and multiplies only
//! each channel's own taps.
//!
//! Activation quantization needs a per-unit input range. Every unit input
//! except the network input is the previous unit's post-BN, post-ReLU
//! output, whose per-channel distribution the previous BatchNorm's own
//! parameters describe (mean `beta_c`, standard deviation `|gamma_c|` over
//! the normalized activation): the static range `[0, max_c(beta_c +
//! 6|gamma_c|)]` covers it with 6-sigma headroom and costs nothing at
//! deployment time. The network input has no upstream BatchNorm and falls
//! back to a dynamic min/max scan per batch.
//!
//! The secure branch `M_T` never routes through this module.

use tbnet_tensor::ops::{
    add_assign, conv2d_forward_q8, maxpool2d_eval, unary, ActQuant, PackedConv2dWeight,
    QuantConv2dWeight,
};
use tbnet_tensor::Tensor;

use crate::{ChainNet, Result};

/// One quantized conv unit: BN-folded int8 weight, f32 folded bias, the
/// static activation quantizer (when derivable) and the unit's pooling.
#[derive(Debug, Clone)]
pub struct QuantUnit {
    weight: QuantConv2dWeight,
    bias: Tensor,
    /// `None` means dynamic per-batch calibration (the network input).
    act: Option<ActQuant>,
    stride: usize,
    pad: usize,
    pool: Option<usize>,
    skip_from: Option<usize>,
}

impl QuantUnit {
    /// The quantized weight.
    pub fn weight(&self) -> &QuantConv2dWeight {
        &self.weight
    }

    /// Whether this unit's activation range is static (BN-derived) rather
    /// than scanned per batch.
    pub fn has_static_range(&self) -> bool {
        self.act.is_some()
    }
}

/// The quantized rich branch: every unit of a [`ChainNet`] feature
/// extractor converted for int8 execution. The classifier head is not
/// included — in the two-branch deployment the head runs on the merged
/// stream, not on `M_R` alone.
#[derive(Debug, Clone)]
pub struct QuantBranch {
    units: Vec<QuantUnit>,
}

impl QuantBranch {
    /// Quantizes every unit of `net`. The network's current weights,
    /// BatchNorm parameters and running statistics are baked in; requantize
    /// after any further training.
    ///
    /// # Errors
    ///
    /// Returns shape errors for inconsistent layer state.
    pub fn from_chain(net: &ChainNet) -> Result<QuantBranch> {
        let mut units = Vec::with_capacity(net.units().len());
        for u in net.units() {
            let (scale, shift) = u.bn().inference_scale_shift();
            let (pack, bias) = PackedConv2dWeight::fold_bn(
                &u.conv().weight().value,
                u.conv().bias().map(|b| &b.value),
                &scale,
                &shift,
            )?;
            // Depthwise weights are stored `[C, 1, KH, KW]`, which shape alone
            // cannot tell from a dense conv with one input channel.
            let weight = if u.conv().is_depthwise() {
                QuantConv2dWeight::quantize_depthwise(pack.weight())?
            } else {
                QuantConv2dWeight::quantize(pack.weight())?
            };
            units.push(QuantUnit {
                weight,
                bias,
                act: None,
                stride: u.conv().stride(),
                pad: u.conv().pad(),
                pool: u.spec().pool_after,
                skip_from: u.spec().skip_from,
            });
        }
        // Static activation ranges: unit i>0 consumes unit i-1's post-ReLU
        // output, bounded by that unit's BatchNorm affine.
        for (i, unit) in units.iter_mut().enumerate().skip(1) {
            let bn = net.units()[i - 1].bn();
            let g = bn.gamma().value.as_slice();
            let b = bn.beta().value.as_slice();
            let hi = g
                .iter()
                .zip(b)
                .map(|(&gi, &bi)| bi + 6.0 * gi.abs())
                .fold(0.0f32, f32::max)
                .max(1e-3);
            unit.act = Some(ActQuant::from_range(0.0, hi));
        }
        Ok(QuantBranch { units })
    }

    /// Number of quantized units.
    pub fn unit_count(&self) -> usize {
        self.units.len()
    }

    /// The quantized units.
    pub fn units(&self) -> &[QuantUnit] {
        &self.units
    }

    /// Total bytes of quantized weight state (what the REE ships instead of
    /// f32 weights).
    pub fn packed_bytes(&self) -> usize {
        self.units
            .iter()
            .map(|u| u.weight.packed_bytes() + u.bias.numel() * 4)
            .sum()
    }

    /// Runs unit `i` on `input` (and optional residual `skip`, shaped like
    /// the pre-pool activation): int8 conv with fused bias/ReLU, then
    /// index-free pooling. Immutable — safe to share across a deployment's
    /// inference calls.
    ///
    /// # Errors
    ///
    /// Returns shape errors when operands disagree with the unit geometry.
    pub fn forward_unit(&self, i: usize, input: &Tensor, skip: Option<&Tensor>) -> Result<Tensor> {
        let u = &self.units[i];
        let act = u.act.unwrap_or_else(|| ActQuant::from_tensor(input));
        let mut out = match skip {
            None => conv2d_forward_q8(input, &u.weight, act, Some(&u.bias), u.stride, u.pad, true)?,
            Some(s) => {
                // A residual add sits between the conv and the ReLU, so the
                // ReLU cannot fuse into the integer kernel here.
                let mut pre = conv2d_forward_q8(
                    input,
                    &u.weight,
                    act,
                    Some(&u.bias),
                    u.stride,
                    u.pad,
                    false,
                )?;
                add_assign(&mut pre, s)?;
                unary(&pre, &|x| x.max(0.0))
            }
        };
        if let Some(k) = u.pool {
            out = maxpool2d_eval(&out, k)?;
        }
        Ok(out)
    }

    /// Runs the whole branch: the int8 analogue of the feature-extractor
    /// part of [`ChainNet::predict_inference`].
    ///
    /// # Errors
    ///
    /// Returns shape errors when `input` disagrees with the branch.
    pub fn features(&self, input: &Tensor) -> Result<Tensor> {
        let n = self.units.len();
        let mut is_skip_src = vec![false; n];
        for u in &self.units {
            if let Some(j) = u.skip_from {
                is_skip_src[j] = true;
            }
        }
        let mut outs: Vec<Option<Tensor>> = (0..n).map(|_| None).collect();
        let mut x = input.clone();
        for i in 0..n {
            let skip = self.units[i].skip_from.and_then(|j| outs[j].as_ref());
            let y = self.forward_unit(i, &x, skip)?;
            if is_skip_src[i] {
                outs[i] = Some(y.clone());
            }
            x = y;
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mobile, resnet, vgg};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tbnet_nn::{Layer, Mode};
    use tbnet_tensor::init;

    #[test]
    fn quantized_features_track_f32_inference() {
        let spec = vgg::vgg_tiny(10, 3, (16, 16));
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = ChainNet::from_spec(&spec, &mut rng).unwrap();
        // Populate running statistics so BN folding and the static ranges
        // describe the actual activation distribution.
        for _ in 0..4 {
            let warm = init::randn(&[8, 3, 16, 16], 1.0, &mut rng);
            net.forward(&warm, Mode::Train).unwrap();
        }
        let q = QuantBranch::from_chain(&net).unwrap();
        assert_eq!(q.unit_count(), net.units().len());
        assert!(!q.units()[0].has_static_range());
        assert!(q.units()[1].has_static_range());

        let x = init::randn(&[4, 3, 16, 16], 1.0, &mut rng);
        let qf = q.features(&x).unwrap();
        let mut rf = x.clone();
        let n = net.units().len();
        for i in 0..n {
            rf = net.units_mut()[i]
                .forward_inference(&rf, None, None)
                .unwrap();
        }
        assert_eq!(qf.dims(), rf.dims());
        let scale = rf
            .as_slice()
            .iter()
            .fold(0.0f32, |m, &v| m.max(v.abs()))
            .max(1e-6);
        let max_err = qf
            .as_slice()
            .iter()
            .zip(rf.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(
            max_err / scale < 0.25,
            "int8 features diverged: max err {max_err} vs scale {scale}"
        );
    }

    #[test]
    fn int8_snapshot_holds_only_real_taps() {
        // Depthwise units keep their own taps (no C×C block-diagonal
        // expansion) and 1×1 units spend no bytes on padding taps, so the
        // snapshot stays well under the f32 conv weights it replaces.
        for spec in [
            mobile::mobile_from_stages("mobile", &[(32, 2), (64, 2), (128, 2)], 10, 3, (16, 16)),
            resnet::resnet_from_stages("resnet", &[16, 32, 64], 1, 10, 3, (16, 16)),
            vgg::vgg_tiny(10, 3, (16, 16)),
        ] {
            let net = ChainNet::from_spec(&spec, &mut StdRng::seed_from_u64(3)).unwrap();
            let q = QuantBranch::from_chain(&net).unwrap();
            for (u, qu) in net.units().iter().zip(q.units()) {
                assert_eq!(u.conv().is_depthwise(), qu.weight().is_depthwise());
            }
            let f32_bytes: usize = net
                .units()
                .iter()
                .map(|u| u.conv().weight().value.numel() * 4)
                .sum();
            let ratio = q.packed_bytes() as f64 / f32_bytes as f64;
            assert!(
                ratio <= 0.4,
                "{}: int8 snapshot {} B is {ratio:.2}x the {f32_bytes} B of f32 conv weights",
                spec.name,
                q.packed_bytes()
            );
        }
    }

    #[test]
    fn quantized_branch_is_deterministic() {
        let spec = vgg::vgg_tiny(10, 3, (16, 16));
        let mut rng = StdRng::seed_from_u64(1);
        let net = ChainNet::from_spec(&spec, &mut rng).unwrap();
        let q = QuantBranch::from_chain(&net).unwrap();
        let x = init::randn(&[2, 3, 16, 16], 1.0, &mut rng);
        let a = q.features(&x).unwrap();
        let b = q.features(&x).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
    }
}

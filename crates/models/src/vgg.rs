//! VGG-style architecture builders.
//!
//! The paper evaluates "VGG18" — an 18-weight-layer VGG variant (17
//! convolutions plus the classifier). [`vgg18`] reproduces that at CIFAR
//! scale, and [`vgg_tiny`] is the width/depth-scaled variant the experiment
//! harness trains in CPU-minutes on the synthetic CIFAR-like data of
//! `tbnet_data` (whose crate docs give the substitution argument).

use crate::{HeadSpec, ModelSpec, UnitSpec};

/// Builds a VGG-style spec from `(width, convs)` stages; every stage ends
/// with a 2×2 max-pool. Each unit gets its own pruning group (plain chains
/// have no cross-unit mask constraints).
///
/// # Panics
///
/// Panics if `stages` is empty.
pub fn vgg_from_stages(
    name: &str,
    stages: &[(usize, usize)],
    classes: usize,
    in_channels: usize,
    input_hw: (usize, usize),
) -> ModelSpec {
    assert!(!stages.is_empty(), "need at least one stage");
    let mut units = Vec::new();
    let mut group = 0usize;
    for &(width, convs) in stages {
        for ci in 0..convs {
            let mut unit = UnitSpec::conv3x3(width, group);
            group += 1;
            if ci == convs - 1 {
                unit = unit.with_pool(2);
            }
            units.push(unit);
        }
    }
    ModelSpec {
        name: name.to_string(),
        in_channels,
        input_hw,
        classes,
        units,
        head: HeadSpec::FlattenLinear,
    }
}

/// The paper's VGG18 at CIFAR scale (32×32 input): 17 convolutions in five
/// pooled stages plus the linear classifier — 18 weight layers.
pub fn vgg18(classes: usize, in_channels: usize, input_hw: (usize, usize)) -> ModelSpec {
    vgg_from_stages(
        "VGG18",
        &[(64, 2), (128, 2), (256, 4), (512, 4), (512, 5)],
        classes,
        in_channels,
        input_hw,
    )
}

/// Width/depth-scaled VGG used by the experiment harness (16×16 inputs,
/// three pooled stages, 6 convolutions). Architecturally identical in kind to
/// [`vgg18`]: conv-BN-ReLU stacks with stage pooling and a flatten-linear
/// head.
pub fn vgg_tiny(classes: usize, in_channels: usize, input_hw: (usize, usize)) -> ModelSpec {
    vgg_from_stages(
        "VGG18-t",
        &[(16, 2), (32, 2), (64, 2)],
        classes,
        in_channels,
        input_hw,
    )
}

/// Like [`vgg_from_stages`] but with 5×5 convolutions (stride 1, pad 2 —
/// spatial-preserving, same as the 3×3 units). Exercises the widened direct
/// stencil in the conv engine end-to-end.
///
/// # Panics
///
/// Panics if `stages` is empty.
pub fn vgg5x5_from_stages(
    name: &str,
    stages: &[(usize, usize)],
    classes: usize,
    in_channels: usize,
    input_hw: (usize, usize),
) -> ModelSpec {
    assert!(!stages.is_empty(), "need at least one stage");
    let mut units = Vec::new();
    let mut group = 0usize;
    for &(width, convs) in stages {
        for ci in 0..convs {
            let mut unit = UnitSpec::conv5x5(width, group);
            group += 1;
            if ci == convs - 1 {
                unit = unit.with_pool(2);
            }
            units.push(unit);
        }
    }
    ModelSpec {
        name: name.to_string(),
        in_channels,
        input_hw,
        classes,
        units,
        head: HeadSpec::FlattenLinear,
    }
}

/// 5×5-kernel sibling of [`vgg_tiny`]: three pooled single-conv stages at
/// the same widths, one wide receptive field per stage instead of two
/// stacked 3×3s.
pub fn vgg_tiny_5x5(classes: usize, in_channels: usize, input_hw: (usize, usize)) -> ModelSpec {
    vgg5x5_from_stages(
        "VGG5x5-t",
        &[(16, 1), (32, 1), (64, 1)],
        classes,
        in_channels,
        input_hw,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vgg18_has_18_weight_layers() {
        let spec = vgg18(10, 3, (32, 32));
        assert_eq!(spec.units.len(), 17);
        assert!(spec.trace().is_ok());
        assert_eq!(spec.head, HeadSpec::FlattenLinear);
        // 5 pools: 32 → 1
        let t = spec.trace().unwrap();
        assert_eq!(t.last().unwrap().out_hw, (1, 1));
        assert_eq!(spec.head_in_features().unwrap(), 512);
    }

    #[test]
    fn vgg_tiny_fits_16px_input() {
        let spec = vgg_tiny(10, 3, (16, 16));
        assert_eq!(spec.units.len(), 6);
        let t = spec.trace().unwrap();
        assert_eq!(t.last().unwrap().out_hw, (2, 2));
        assert_eq!(spec.head_in_features().unwrap(), 64 * 4);
    }

    #[test]
    fn every_unit_has_unique_group() {
        let spec = vgg18(10, 3, (32, 32));
        assert_eq!(spec.group_count(), spec.units.len());
    }

    #[test]
    fn no_skips_in_vgg() {
        let spec = vgg18(100, 3, (32, 32));
        assert!(spec.units.iter().all(|u| u.skip_from.is_none()));
    }

    #[test]
    fn pool_only_on_stage_ends() {
        let spec = vgg_tiny(10, 3, (16, 16));
        let pooled: Vec<bool> = spec.units.iter().map(|u| u.pool_after.is_some()).collect();
        assert_eq!(pooled, vec![false, true, false, true, false, true]);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_stages_panic() {
        vgg_from_stages("x", &[], 10, 3, (16, 16));
    }

    #[test]
    fn vgg5x5_tiny_traces_and_preserves_spatial() {
        let spec = vgg_tiny_5x5(10, 3, (16, 16));
        assert_eq!(spec.units.len(), 3);
        assert!(spec.units.iter().all(|u| u.kernel == 5 && u.pad == 2));
        let t = spec.trace().unwrap();
        // pad 2 keeps conv spatial dims; only the pools shrink.
        assert_eq!(t[0].conv_hw, (16, 16));
        assert_eq!(t.last().unwrap().out_hw, (2, 2));
    }
}

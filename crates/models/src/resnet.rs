//! ResNet-20 architecture builders (He et al., CIFAR variant).
//!
//! A ResNet-20 is a 3×3 stem followed by three stages of three basic blocks
//! (two 3×3 convolutions each) and a global-average-pool + linear head:
//! 19 convolutions + 1 linear = 20 weight layers.
//!
//! Identity skips connect each block's input to its output whenever the
//! shapes match (stride 1, equal channels). The stage-entry blocks of stages
//! 2 and 3 downsample (stride 2) and double the width; their shortcut is
//! omitted (a common lightweight variant of option-A shortcuts).
//! Residually-connected units share a pruning *group* so the TBNet channel
//! masks keep the additions shape-consistent.

use crate::{HeadSpec, ModelSpec, UnitSpec};

/// Builds a CIFAR-style ResNet spec with the given stage widths and blocks
/// per stage. `widths.len()` defines the number of stages; stages after the
/// first start with a stride-2 downsampling block.
///
/// # Panics
///
/// Panics if `widths` is empty or `blocks_per_stage` is zero.
pub fn resnet_from_stages(
    name: &str,
    widths: &[usize],
    blocks_per_stage: usize,
    classes: usize,
    in_channels: usize,
    input_hw: (usize, usize),
) -> ModelSpec {
    assert!(!widths.is_empty(), "need at least one stage");
    assert!(blocks_per_stage > 0, "need at least one block per stage");

    let mut units: Vec<UnitSpec> = Vec::new();
    let mut next_group = 0usize;
    let mut fresh_group = || {
        let g = next_group;
        next_group += 1;
        g
    };

    // Stem: one 3×3 conv at the first stage's width. Its output joins the
    // stage-1 residual chain, so it shares that chain's group.
    let stage1_chain_group = fresh_group();
    units.push(UnitSpec::conv3x3(widths[0], stage1_chain_group));

    // Index of the unit whose output is the current block input.
    let mut block_input_unit = 0usize;
    let mut in_width = widths[0];

    for (s, &width) in widths.iter().enumerate() {
        // The group shared by every residual endpoint in this stage.
        let mut chain_group = if s == 0 {
            stage1_chain_group
        } else {
            // Allocated lazily when the first block of the stage is emitted.
            usize::MAX
        };
        for b in 0..blocks_per_stage {
            let downsample = s > 0 && b == 0;
            let stride = if downsample { 2 } else { 1 };
            // conv1: free-standing group (internal channels prune freely).
            let conv1 = UnitSpec::conv3x3(width, fresh_group()).with_stride(stride);
            units.push(conv1);
            // conv2: stage chain group; identity skip when shapes allow.
            if chain_group == usize::MAX {
                chain_group = fresh_group();
            }
            let mut conv2 = UnitSpec::conv3x3(width, chain_group);
            let can_skip = !downsample && in_width == width;
            if can_skip {
                conv2 = conv2.with_skip_from(block_input_unit);
            }
            units.push(conv2);
            block_input_unit = units.len() - 1;
            in_width = width;
        }
    }

    ModelSpec {
        name: name.to_string(),
        in_channels,
        input_hw,
        classes,
        units,
        head: HeadSpec::GapLinear,
    }
}

/// Builds a bottleneck-residual spec: a 3×3 stem, then per stage `blocks`
/// blocks of `1×1 reduce (w/2) → 3×3 → 1×1 expand (w)`, with an identity
/// skip around every block whose shapes match (stride 1, equal widths).
/// Stages after the first enter with a stride-2 downsampling reduce and no
/// shortcut, like [`resnet_from_stages`].
///
/// This is the geometry where the fused inference path pays off most: the
/// 1×1 convolutions do little arithmetic per activation, so the separate
/// BN/ReLU/skip-merge sweeps of the training-shaped forward are a large
/// fraction of its runtime.
///
/// # Panics
///
/// Panics if `widths` is empty, any width is odd, or `blocks` is zero.
pub fn bottleneck_from_stages(
    name: &str,
    widths: &[usize],
    blocks: usize,
    classes: usize,
    in_channels: usize,
    input_hw: (usize, usize),
) -> ModelSpec {
    assert!(!widths.is_empty(), "need at least one stage");
    assert!(blocks > 0, "need at least one block per stage");
    assert!(
        widths.iter().all(|w| w % 2 == 0),
        "bottleneck widths must be even (mid width is w/2)"
    );

    let mut units: Vec<UnitSpec> = Vec::new();
    let mut next_group = 0usize;
    let mut fresh_group = || {
        let g = next_group;
        next_group += 1;
        g
    };

    // Stem joins the stage-1 residual chain (its output feeds the first
    // block's shortcut), so it shares that chain's pruning group.
    let stage1_chain = fresh_group();
    units.push(UnitSpec::conv3x3(widths[0], stage1_chain));
    let mut block_input_unit = 0usize;

    for (s, &width) in widths.iter().enumerate() {
        let chain = if s == 0 { stage1_chain } else { fresh_group() };
        let mid = width / 2;
        for b in 0..blocks {
            let downsample = s > 0 && b == 0;
            let stride = if downsample { 2 } else { 1 };
            units.push(UnitSpec {
                out_channels: mid,
                kernel: 1,
                stride,
                pad: 0,
                pool_after: None,
                group: fresh_group(),
                skip_from: None,
                depthwise: false,
            });
            units.push(UnitSpec::conv3x3(mid, fresh_group()));
            let mut expand = UnitSpec {
                out_channels: width,
                kernel: 1,
                stride: 1,
                pad: 0,
                pool_after: None,
                group: chain,
                skip_from: None,
                depthwise: false,
            };
            if !downsample {
                expand = expand.with_skip_from(block_input_unit);
            }
            units.push(expand);
            block_input_unit = units.len() - 1;
        }
    }

    ModelSpec {
        name: name.to_string(),
        in_channels,
        input_hw,
        classes,
        units,
        head: HeadSpec::GapLinear,
    }
}

/// The paper's ResNet-20 at CIFAR scale: widths (16, 32, 64), three blocks
/// per stage, 32×32 inputs.
pub fn resnet20(classes: usize, in_channels: usize, input_hw: (usize, usize)) -> ModelSpec {
    resnet_from_stages("ResNet20", &[16, 32, 64], 3, classes, in_channels, input_hw)
}

/// Width-scaled ResNet-20 used by the experiment harness (16×16 inputs,
/// widths 8/16/32). Same topology — 19 convolutions, identity skips, GAP
/// head — at a quarter of the width.
pub fn resnet20_tiny(classes: usize, in_channels: usize, input_hw: (usize, usize)) -> ModelSpec {
    resnet_from_stages(
        "ResNet20-t",
        &[8, 16, 32],
        3,
        classes,
        in_channels,
        input_hw,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet20_has_20_weight_layers() {
        let spec = resnet20(10, 3, (32, 32));
        assert_eq!(spec.units.len(), 19); // stem + 3 stages × 3 blocks × 2
        assert!(spec.trace().is_ok());
        assert_eq!(spec.head, HeadSpec::GapLinear);
        assert_eq!(spec.head_in_features().unwrap(), 64);
    }

    #[test]
    fn downsampling_halves_spatial_twice() {
        let spec = resnet20(10, 3, (32, 32));
        let t = spec.trace().unwrap();
        assert_eq!(t.last().unwrap().out_hw, (8, 8));
        assert_eq!(t.last().unwrap().out_channels, 64);
    }

    #[test]
    fn skip_placement() {
        let spec = resnet20(10, 3, (32, 32));
        let skips: Vec<Option<usize>> = spec.units.iter().map(|u| u.skip_from).collect();
        // Stem has no skip.
        assert_eq!(skips[0], None);
        // Stage 1: all three blocks skip (stride 1, equal widths).
        assert_eq!(skips[2], Some(0)); // block 1 conv2 ← stem
        assert_eq!(skips[4], Some(2));
        assert_eq!(skips[6], Some(4));
        // Stage 2: first block downsumples → no skip; later blocks skip.
        assert_eq!(skips[8], None);
        assert_eq!(skips[10], Some(8));
        assert_eq!(skips[12], Some(10));
        // Stage 3 mirrors stage 2.
        assert_eq!(skips[14], None);
        assert_eq!(skips[16], Some(14));
        assert_eq!(skips[18], Some(16));
    }

    #[test]
    fn residual_endpoints_share_groups() {
        let spec = resnet20(10, 3, (32, 32));
        // Stage-1 chain: stem and all conv2 units of stage 1.
        let g = spec.units[0].group;
        assert_eq!(spec.units[2].group, g);
        assert_eq!(spec.units[4].group, g);
        assert_eq!(spec.units[6].group, g);
        // Stage-2 chain is a different group shared by its conv2 units.
        let g2 = spec.units[8].group;
        assert_ne!(g2, g);
        assert_eq!(spec.units[10].group, g2);
        assert_eq!(spec.units[12].group, g2);
        // conv1 units have their own groups.
        assert_ne!(spec.units[1].group, g);
    }

    #[test]
    fn without_skips_still_traces() {
        let spec = resnet20_tiny(10, 3, (16, 16)).without_skips();
        assert!(spec.trace().is_ok());
        assert!(spec.units.iter().all(|u| u.skip_from.is_none()));
    }

    #[test]
    fn tiny_variant_shapes() {
        let spec = resnet20_tiny(100, 3, (16, 16));
        let t = spec.trace().unwrap();
        assert_eq!(t.last().unwrap().out_hw, (4, 4));
        assert_eq!(spec.head_in_features().unwrap(), 32);
        assert_eq!(spec.classes, 100);
    }

    #[test]
    fn group_count_is_consistent() {
        let spec = resnet20(10, 3, (32, 32));
        // 3 chain groups + 9 conv1 groups = 12.
        assert_eq!(spec.group_count(), 12);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_blocks_panics() {
        resnet_from_stages("x", &[8], 0, 10, 3, (16, 16));
    }

    #[test]
    fn bottleneck_traces_and_skips() {
        let spec = bottleneck_from_stages("bn", &[32, 64], 2, 10, 3, (32, 32));
        // Stem + 2 stages × 2 blocks × 3 convs.
        assert_eq!(spec.units.len(), 13);
        let t = spec.trace().unwrap();
        assert_eq!(t.last().unwrap().out_channels, 64);
        assert_eq!(t.last().unwrap().out_hw, (16, 16));
        let skips: Vec<Option<usize>> = spec.units.iter().map(|u| u.skip_from).collect();
        // Stage 1: both blocks skip (stem → expand 3 → expand 6); stage 2's
        // entry block downsamples (no skip), its second block skips.
        assert_eq!(skips[3], Some(0));
        assert_eq!(skips[6], Some(3));
        assert_eq!(skips[9], None);
        assert_eq!(skips[12], Some(9));
        // Kernel mix: 1×1 reduce/expand around each 3×3.
        assert_eq!(spec.units[1].kernel, 1);
        assert_eq!(spec.units[2].kernel, 3);
        assert_eq!(spec.units[3].kernel, 1);
        // Residual endpoints share the chain group per stage.
        assert_eq!(spec.units[3].group, spec.units[0].group);
        assert_eq!(spec.units[6].group, spec.units[0].group);
        assert_eq!(spec.units[9].group, spec.units[12].group);
        assert_ne!(spec.units[9].group, spec.units[0].group);
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn bottleneck_odd_width_panics() {
        bottleneck_from_stages("x", &[9], 1, 10, 3, (16, 16));
    }
}

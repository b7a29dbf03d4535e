//! Steps ③–⑤ — iterative two-branch pruning (paper Alg. 1).
//!
//! Every iteration:
//!
//! 1. extract the BatchNorm scales of both branches and form **composite
//!    weights** `|γ_R| + |γ_T|` per channel (step ④) — both branches feed the
//!    merged feature map, so importance must be judged jointly;
//! 2. sort the composite weights, place the threshold at the configured
//!    pruning ratio, and build a keep-mask (Alg. 1 lines 5–11). Channels of
//!    residually-connected units share a *pruning group* and therefore one
//!    mask, keeping skip additions shape-consistent;
//! 3. apply the mask to **both** branches simultaneously — convolution
//!    rows/columns, BN channel state and classifier columns (line 12);
//! 4. fine-tune the pruned two-branch model and compare the accuracy drop
//!    against the budget `θ_drop`; revert and stop when exceeded.
//!
//! The iteration history keeps the pre-iteration `M_R` snapshot that rollback
//! finalization (step ⑥) later restores.

use serde::{Deserialize, Serialize};

use tbnet_data::ImageDataset;
use tbnet_models::{ChainNet, HeadSpec};
use tbnet_tensor::Tensor;

use crate::channels::ChannelBook;
use crate::dp_train::WorkerPolicy;
use crate::transfer::{evaluate_two_branch, train_two_branch_with_workers, TransferConfig};
use crate::{CoreError, Result, TwoBranchModel};

/// Configuration of the iterative pruning loop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PruneConfig {
    /// Fraction of all channels removed per iteration (paper: 0.10).
    pub ratio: f32,
    /// Minimum channels every pruning group keeps (prevents disconnection).
    pub min_channels: usize,
    /// θ_drop — the acceptable accuracy drop relative to the reference.
    pub drop_budget: f32,
    /// Upper bound on pruning iterations (safety stop).
    pub max_iterations: usize,
    /// Fine-tuning settings applied after each pruning step.
    pub finetune: TransferConfig,
}

impl PruneConfig {
    /// The paper's configuration (10 % per iteration) with experiment-scale
    /// fine-tuning.
    pub fn paper_scaled(finetune_epochs: usize) -> Self {
        PruneConfig {
            ratio: 0.10,
            min_channels: 2,
            drop_budget: 0.05,
            max_iterations: 8,
            finetune: TransferConfig::paper_scaled(finetune_epochs),
        }
    }

    pub(crate) fn validate(&self) -> Result<()> {
        if !(0.0..1.0).contains(&self.ratio) {
            return Err(CoreError::InvalidConfig {
                field: "ratio",
                reason: format!("must be in [0, 1), got {}", self.ratio),
            });
        }
        if self.min_channels == 0 {
            return Err(CoreError::InvalidConfig {
                field: "min_channels",
                reason: "must be at least 1".into(),
            });
        }
        if self.drop_budget < 0.0 {
            return Err(CoreError::InvalidConfig {
                field: "drop_budget",
                reason: "must be non-negative".into(),
            });
        }
        Ok(())
    }
}

/// Per-iteration record of the pruning loop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PruneIteration {
    /// 0-based iteration index.
    pub iteration: usize,
    /// Total channels across all units after this iteration.
    pub channels_after: usize,
    /// Two-branch test accuracy after fine-tuning.
    pub accuracy: f32,
    /// Whether the iteration was kept (accuracy within budget).
    pub kept: bool,
}

/// Result of [`iterative_prune_with_workers`]: the loop history plus the
/// rollback state for step ⑥.
#[derive(Debug, Clone)]
pub struct PruneOutcome {
    /// Per-iteration records (including the final rejected one, if any).
    pub history: Vec<PruneIteration>,
    /// `M_R` as it was before the most recent *kept* iteration — the state
    /// rollback finalization restores.
    pub rollback_mr: ChainNet,
    /// The matching channel book.
    pub rollback_mr_book: ChannelBook,
    /// Two-branch accuracy of the final (kept) model.
    pub final_accuracy: f32,
}

/// Step ③/④ — per-unit composite channel scores `|γ_R| + |γ_T|`.
///
/// # Errors
///
/// Returns [`CoreError::BranchMismatch`] if the branches disagree on channel
/// counts (they cannot, unless externally rewritten).
pub fn composite_scores(model: &TwoBranchModel) -> Result<Vec<Vec<f32>>> {
    let mr = model.mr().units();
    let mt = model.mt().units();
    let mut scores = Vec::with_capacity(mt.len());
    for (i, (ru, tu)) in mr.iter().zip(mt).enumerate() {
        let gr = ru.bn().gamma().value.as_slice();
        let gt = tu.bn().gamma().value.as_slice();
        if gr.len() != gt.len() {
            return Err(CoreError::BranchMismatch {
                reason: format!(
                    "unit {i}: M_R has {} channels, M_T has {}",
                    gr.len(),
                    gt.len()
                ),
            });
        }
        scores.push(gr.iter().zip(gt).map(|(a, b)| a.abs() + b.abs()).collect());
    }
    Ok(scores)
}

/// Alg. 1 lines 5–11 — builds per-unit keep-masks from composite scores.
///
/// Units sharing a pruning group receive one mask computed from the mean of
/// their scores; the global threshold sits at the `ratio` quantile of all
/// effective scores. Every group keeps at least `min_channels` channels.
///
/// # Errors
///
/// Returns [`CoreError::PruningError`] when grouped units disagree on
/// channel counts.
pub fn build_masks(
    model: &TwoBranchModel,
    scores: &[Vec<f32>],
    ratio: f32,
    min_channels: usize,
) -> Result<Vec<Vec<bool>>> {
    let units = model.mt().units();
    let mut groups: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for (i, u) in units.iter().enumerate() {
        groups.entry(u.spec().group).or_default().push(i);
    }
    // Group-mean scores keep grouped channels comparable with free channels.
    let mut group_scores: std::collections::BTreeMap<usize, Vec<f32>> = Default::default();
    for (&g, members) in &groups {
        let c = scores[members[0]].len();
        for &m in members {
            if scores[m].len() != c {
                return Err(CoreError::PruningError {
                    reason: format!(
                        "group {g}: units disagree on channel count ({} vs {})",
                        scores[m].len(),
                        c
                    ),
                });
            }
        }
        let mut mean = vec![0.0f32; c];
        for &m in members {
            for (s, &v) in mean.iter_mut().zip(&scores[m]) {
                *s += v;
            }
        }
        for s in &mut mean {
            *s /= members.len() as f32;
        }
        group_scores.insert(g, mean);
    }
    // Global threshold at the ratio quantile of per-unit effective scores
    // (Alg. 1 line 5: T = sort(BN)[N·p]).
    let mut all: Vec<f32> = Vec::new();
    for u in units.iter() {
        all.extend_from_slice(&group_scores[&u.spec().group]);
    }
    all.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let cut = ((all.len() as f32) * ratio).floor() as usize;
    let threshold = if cut == 0 {
        f32::NEG_INFINITY
    } else {
        all[(cut - 1).min(all.len() - 1)]
    };

    // Keep strictly-above-threshold channels (Alg. 1 line 8), topped up to
    // the per-group floor by score.
    let mut group_masks: std::collections::BTreeMap<usize, Vec<bool>> = Default::default();
    for (&g, gs) in &group_scores {
        let mut mask: Vec<bool> = gs.iter().map(|&s| s > threshold).collect();
        let kept = mask.iter().filter(|&&k| k).count();
        let floor = min_channels.min(gs.len());
        if kept < floor {
            let mut order: Vec<usize> = (0..gs.len()).collect();
            order.sort_by(|&a, &b| {
                gs[b]
                    .partial_cmp(&gs[a])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            mask = vec![false; gs.len()];
            for &i in order.iter().take(floor) {
                mask[i] = true;
            }
        }
        group_masks.insert(g, mask);
    }
    Ok(units
        .iter()
        .map(|u| group_masks[&u.spec().group].clone())
        .collect())
}

fn kept_indices(mask: &[bool]) -> Vec<usize> {
    mask.iter()
        .enumerate()
        .filter_map(|(i, &k)| k.then_some(i))
        .collect()
}

fn select_1d(t: &Tensor, keep: &[usize]) -> Tensor {
    let src = t.as_slice();
    Tensor::from_slice(&keep.iter().map(|&i| src[i]).collect::<Vec<f32>>())
}

fn select_conv_out(w: &Tensor, keep: &[usize]) -> Result<Tensor> {
    let (in_c, kh, kw) = (w.dim(1), w.dim(2), w.dim(3));
    let row = in_c * kh * kw;
    let src = w.as_slice();
    let mut data = Vec::with_capacity(keep.len() * row);
    for &o in keep {
        data.extend_from_slice(&src[o * row..(o + 1) * row]);
    }
    Ok(Tensor::from_vec(data, &[keep.len(), in_c, kh, kw])?)
}

fn select_conv_in(w: &Tensor, keep: &[usize]) -> Result<Tensor> {
    let (o, in_c, kh, kw) = (w.dim(0), w.dim(1), w.dim(2), w.dim(3));
    let plane = kh * kw;
    let src = w.as_slice();
    let mut data = Vec::with_capacity(o * keep.len() * plane);
    for oi in 0..o {
        for &ci in keep {
            let base = (oi * in_c + ci) * plane;
            data.extend_from_slice(&src[base..base + plane]);
        }
    }
    Ok(Tensor::from_vec(data, &[o, keep.len(), kh, kw])?)
}

fn select_linear_in(w: &Tensor, keep: &[usize]) -> Result<Tensor> {
    let (o, in_f) = (w.dim(0), w.dim(1));
    let src = w.as_slice();
    let mut data = Vec::with_capacity(o * keep.len());
    for oi in 0..o {
        for &ci in keep {
            data.push(src[oi * in_f + ci]);
        }
    }
    Ok(Tensor::from_vec(data, &[o, keep.len()])?)
}

/// Applies keep-masks to one branch in place: convolution out/in channels,
/// BN channel state and classifier input features (Alg. 1 line 12).
///
/// # Errors
///
/// Returns [`CoreError::PruningError`] when mask lengths disagree with the
/// live layer shapes or a mask would empty a unit.
#[allow(clippy::needless_range_loop)] // mask index i also addresses unit i+1
pub fn apply_masks_to_chain(net: &mut ChainNet, masks: &[Vec<bool>]) -> Result<()> {
    let n = net.units().len();
    if masks.len() != n {
        return Err(CoreError::PruningError {
            reason: format!("got {} masks for {n} units", masks.len()),
        });
    }
    // Final spatial size, needed to slice a FlattenLinear head. Channel
    // pruning does not change spatial dims, so the pre-prune trace is valid.
    let spec = net.spec();
    let trace = spec.trace()?;
    let last_hw = trace.last().expect("non-empty chain").out_hw;

    for i in 0..n {
        let keep_out = kept_indices(&masks[i]);
        if keep_out.is_empty() {
            return Err(CoreError::PruningError {
                reason: format!("mask would remove every channel of unit {i}"),
            });
        }
        {
            let unit = &mut net.units_mut()[i];
            if masks[i].len() != unit.out_channels() {
                return Err(CoreError::PruningError {
                    reason: format!(
                        "unit {i}: mask length {} vs {} channels",
                        masks[i].len(),
                        unit.out_channels()
                    ),
                });
            }
            let new_w = select_conv_out(&unit.conv().weight().value, &keep_out)?;
            unit.conv_mut().set_weight(new_w);
            let gamma = select_1d(&unit.bn().gamma().value, &keep_out);
            let beta = select_1d(&unit.bn().beta().value, &keep_out);
            let rm = select_1d(unit.bn().running_mean(), &keep_out);
            let rv = select_1d(unit.bn().running_var(), &keep_out);
            unit.bn_mut().set_channel_state(gamma, beta, rm, rv)?;
            unit.sync_spec_channels();
        }
        if i + 1 < n {
            let next = &mut net.units_mut()[i + 1];
            // A depthwise successor has no input-channel axis to slice: its
            // weight is `[C, 1, K, K]` and dim 0 is pruned by its own mask
            // (identical to this one — the spec forces a shared group).
            if !next.conv().is_depthwise() {
                let new_w = select_conv_in(&next.conv().weight().value, &keep_out)?;
                next.conv_mut().set_weight(new_w);
            }
        }
    }

    // Classifier input features follow the last unit's surviving channels.
    let keep_last = kept_indices(&masks[n - 1]);
    let head_kind = net.head().kind();
    let linear = net.head_mut().linear_mut();
    let new_w = match head_kind {
        HeadSpec::GapLinear => select_linear_in(&linear.weight().value, &keep_last)?,
        HeadSpec::FlattenLinear => {
            let area = last_hw.0 * last_hw.1;
            let feature_keep: Vec<usize> = keep_last
                .iter()
                .flat_map(|&c| (0..area).map(move |s| c * area + s))
                .collect();
            select_linear_in(&linear.weight().value, &feature_keep)?
        }
    };
    linear.set_weight(new_w);
    Ok(())
}

/// Applies one set of masks to both branches and their channel books,
/// resetting the merge alignment to identity (the branches stay congruent
/// during iterative pruning).
///
/// # Errors
///
/// See [`apply_masks_to_chain`].
pub fn prune_two_branch_once(model: &mut TwoBranchModel, masks: &[Vec<bool>]) -> Result<()> {
    apply_masks_to_chain(model.mr_mut(), masks)?;
    apply_masks_to_chain(model.mt_mut(), masks)?;
    for (i, mask) in masks.iter().enumerate() {
        model.mr_book_mut().apply_mask(i, mask)?;
        model.mt_book_mut().apply_mask(i, mask)?;
    }
    model.reset_identity_alignment();
    Ok(())
}

/// Total surviving channels across all of `M_T`'s units.
pub fn total_channels(model: &TwoBranchModel) -> usize {
    model.mt().units().iter().map(|u| u.out_channels()).sum()
}

/// Steps ③–⑤ — the full iterative prune/fine-tune/check loop of Alg. 1.
///
/// `reference_acc` is the accuracy the drop budget is measured against
/// (the victim's, per the paper's framing). After every mask application,
/// the pruned two-branch model is fine-tuned through
/// [`train_two_branch_with_workers`] under `workers` (a plain `usize`
/// converts to [`WorkerPolicy::Fixed`]). The policy is re-resolved on every
/// iteration against the *post-prune* branch widths, so
/// [`WorkerPolicy::Auto`] backs off to fewer workers as the model narrows
/// and synchronization starts to dominate. Pruned channels stay pruned:
/// training never resizes layers, so the channel books, merge alignment and
/// branch widths are invariant across data-parallel fine-tune steps (the
/// parity suite asserts this).
///
/// # Errors
///
/// Returns configuration errors, or propagated training/shape errors.
pub fn iterative_prune_with_workers(
    model: &mut TwoBranchModel,
    train: &ImageDataset,
    test: &ImageDataset,
    reference_acc: f32,
    cfg: &PruneConfig,
    workers: impl Into<WorkerPolicy>,
) -> Result<PruneOutcome> {
    cfg.validate()?;
    let workers = workers.into();
    let mut history = Vec::new();
    let mut rollback_mr = model.mr().clone();
    let mut rollback_mr_book = model.mr_book().clone();
    let mut final_accuracy = evaluate_two_branch(model, test)?;

    for iteration in 0..cfg.max_iterations {
        let snapshot = model.clone();
        let scores = composite_scores(model)?;
        let masks = build_masks(model, &scores, cfg.ratio, cfg.min_channels)?;
        let before = total_channels(model);
        prune_two_branch_once(model, &masks)?;
        let after = total_channels(model);
        if after == before {
            // Min-channel floors block further progress.
            *model = snapshot;
            break;
        }
        train_two_branch_with_workers(model, train, &cfg.finetune, workers)?;
        let acc = evaluate_two_branch(model, test)?;
        let kept = (reference_acc - acc) <= cfg.drop_budget;
        history.push(PruneIteration {
            iteration,
            channels_after: after,
            accuracy: acc,
            kept,
        });
        if !kept {
            // Alg. 1: revert to the prior state that satisfied the budget.
            *model = snapshot;
            break;
        }
        rollback_mr = snapshot.mr().clone();
        rollback_mr_book = snapshot.mr_book().clone();
        final_accuracy = acc;
    }

    Ok(PruneOutcome {
        history,
        rollback_mr,
        rollback_mr_book,
        final_accuracy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tbnet_data::{DatasetKind, SyntheticCifar};
    use tbnet_models::{resnet, vgg, ChainNet};
    use tbnet_nn::{Layer, Mode};
    use tbnet_tensor::{init, par};

    fn tb_from(spec: &tbnet_models::ModelSpec, seed: u64) -> TwoBranchModel {
        let mut rng = StdRng::seed_from_u64(seed);
        let victim = ChainNet::from_spec(spec, &mut rng).unwrap();
        TwoBranchModel::from_victim(&victim, &mut rng).unwrap()
    }

    fn eval_forward(net: &mut ChainNet, x: &Tensor) -> Tensor {
        net.forward(x, Mode::Eval).unwrap()
    }

    #[test]
    fn composite_scores_add_both_gammas() {
        let spec = vgg::vgg_from_stages("v", &[(4, 1)], 3, 2, (8, 8));
        let mut tb = tb_from(&spec, 0);
        tb.mr_mut().units_mut()[0].bn_mut().gamma_mut().value =
            Tensor::from_slice(&[0.5, -0.25, 1.0, 0.0]);
        tb.mt_mut().units_mut()[0].bn_mut().gamma_mut().value =
            Tensor::from_slice(&[0.1, 0.25, -1.0, 0.0]);
        let s = composite_scores(&tb).unwrap();
        assert_eq!(s[0], vec![0.6, 0.5, 2.0, 0.0]);
    }

    #[test]
    fn masks_prune_lowest_scores() {
        let spec = vgg::vgg_from_stages("v", &[(4, 1), (4, 1)], 3, 2, (8, 8));
        let tb = tb_from(&spec, 1);
        let scores = vec![vec![0.1, 0.9, 0.8, 0.7], vec![0.6, 0.05, 0.5, 0.4]];
        // ratio 0.25 of 8 channels → threshold is the 2nd-smallest (0.1);
        // channels strictly above survive.
        let masks = build_masks(&tb, &scores, 0.25, 1).unwrap();
        assert_eq!(masks[0], vec![false, true, true, true]);
        assert_eq!(masks[1], vec![true, false, true, true]);
    }

    #[test]
    fn zero_ratio_prunes_nothing() {
        let spec = vgg::vgg_from_stages("v", &[(4, 1)], 3, 2, (8, 8));
        let tb = tb_from(&spec, 2);
        let scores = composite_scores(&tb).unwrap();
        let masks = build_masks(&tb, &scores, 0.0, 1).unwrap();
        assert!(masks[0].iter().all(|&k| k));
    }

    #[test]
    fn min_channels_floor_enforced() {
        let spec = vgg::vgg_from_stages("v", &[(4, 1)], 3, 2, (8, 8));
        let tb = tb_from(&spec, 3);
        let scores = vec![vec![0.4, 0.3, 0.2, 0.1]];
        // Aggressive ratio would keep only the top channel; floor keeps 2.
        let masks = build_masks(&tb, &scores, 0.9, 2).unwrap();
        assert_eq!(masks[0], vec![true, true, false, false]);
    }

    #[test]
    fn grouped_units_share_mask() {
        let spec = resnet::resnet_from_stages("r", &[4], 1, 3, 2, (8, 8));
        let tb = tb_from(&spec, 4);
        let scores = composite_scores(&tb).unwrap();
        let masks = build_masks(&tb, &scores, 0.3, 1).unwrap();
        // Stem (unit 0) and block conv2 (unit 2) share group 0 → same mask.
        assert_eq!(masks[0], masks[2]);
    }

    #[test]
    fn pruning_zero_importance_channels_preserves_outputs() {
        // Channels whose γ = β = 0 contribute nothing; removing them must
        // leave eval outputs numerically unchanged.
        let spec = vgg::vgg_from_stages("v", &[(5, 1), (4, 1)], 3, 2, (8, 8));
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = ChainNet::from_spec(&spec, &mut rng).unwrap();
        for &ch in &[1usize, 3] {
            net.units_mut()[0].bn_mut().gamma_mut().value.as_mut_slice()[ch] = 0.0;
            net.units_mut()[0].bn_mut().beta_mut().value.as_mut_slice()[ch] = 0.0;
        }
        let x = init::randn(&[2, 2, 8, 8], 1.0, &mut rng);
        let before = eval_forward(&mut net, &x);
        let masks = vec![
            vec![true, false, true, false, true],
            vec![true, true, true, true],
        ];
        apply_masks_to_chain(&mut net, &masks).unwrap();
        assert_eq!(net.units()[0].out_channels(), 3);
        assert_eq!(net.units()[1].in_channels(), 3);
        let after = eval_forward(&mut net, &x);
        for (a, b) in before.as_slice().iter().zip(after.as_slice()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn pruning_last_unit_slices_flatten_head_correctly() {
        let spec = vgg::vgg_from_stages("v", &[(4, 1)], 3, 2, (8, 8));
        let mut rng = StdRng::seed_from_u64(6);
        let mut net = ChainNet::from_spec(&spec, &mut rng).unwrap();
        net.units_mut()[0].bn_mut().gamma_mut().value.as_mut_slice()[2] = 0.0;
        net.units_mut()[0].bn_mut().beta_mut().value.as_mut_slice()[2] = 0.0;
        let x = init::randn(&[2, 2, 8, 8], 1.0, &mut rng);
        let before = eval_forward(&mut net, &x);
        apply_masks_to_chain(&mut net, &[vec![true, true, false, true]]).unwrap();
        let after = eval_forward(&mut net, &x);
        for (a, b) in before.as_slice().iter().zip(after.as_slice()) {
            assert!((a - b).abs() < 1e-4);
        }
        assert_eq!(net.head().linear().in_features(), 3 * 4 * 4);
    }

    #[test]
    fn gap_head_sliced_too() {
        let spec = resnet::resnet_from_stages("r", &[4], 1, 3, 2, (8, 8));
        let mut rng = StdRng::seed_from_u64(7);
        let mut net = ChainNet::from_spec(&spec, &mut rng).unwrap();
        let masks = vec![
            vec![true, true, false, true],
            vec![true, false, true, true],
            vec![true, true, false, true], // shares group with unit 0
        ];
        apply_masks_to_chain(&mut net, &masks).unwrap();
        assert_eq!(net.head().linear().in_features(), 3);
        let y = eval_forward(&mut net, &Tensor::zeros(&[1, 2, 8, 8]));
        assert_eq!(y.dims(), &[1, 3]);
    }

    #[test]
    fn bad_masks_rejected() {
        let spec = vgg::vgg_from_stages("v", &[(4, 1)], 3, 2, (8, 8));
        let mut rng = StdRng::seed_from_u64(8);
        let mut net = ChainNet::from_spec(&spec, &mut rng).unwrap();
        assert!(apply_masks_to_chain(&mut net, &[vec![false; 4]]).is_err());
        assert!(apply_masks_to_chain(&mut net, &[vec![true; 3]]).is_err());
        assert!(apply_masks_to_chain(&mut net, &[]).is_err());
    }

    #[test]
    fn prune_two_branch_keeps_branches_congruent() {
        let spec = vgg::vgg_from_stages("v", &[(6, 1), (6, 1)], 3, 2, (8, 8));
        let mut tb = tb_from(&spec, 9);
        let masks = vec![
            vec![true, false, true, true, false, true],
            vec![false, true, true, true, true, false],
        ];
        prune_two_branch_once(&mut tb, &masks).unwrap();
        assert_eq!(tb.mr().units()[0].out_channels(), 4);
        assert_eq!(tb.mt().units()[0].out_channels(), 4);
        assert_eq!(tb.mr_book().unit(0), &[0, 2, 3, 5]);
        assert_eq!(tb.mt_book().unit(1), &[1, 2, 3, 4]);
        let y = tb.predict(&Tensor::zeros(&[1, 2, 8, 8])).unwrap();
        assert_eq!(y.dims(), &[1, 3]);
    }

    #[test]
    fn iterative_prune_shrinks_and_keeps_history() {
        let data = SyntheticCifar::generate(
            DatasetKind::Cifar10Like
                .config()
                .with_classes(3)
                .with_train_per_class(10)
                .with_test_per_class(5)
                .with_size(8, 8)
                .with_noise_std(0.2),
        );
        let spec = vgg::vgg_from_stages("v", &[(8, 1), (8, 1)], 3, 3, (8, 8));
        let mut tb = tb_from(&spec, 10);
        train_two_branch_with_workers(
            &mut tb,
            data.train(),
            &TransferConfig::paper_scaled(3),
            par::max_threads(),
        )
        .unwrap();
        let ref_acc = evaluate_two_branch(&mut tb, data.test()).unwrap();
        let before = total_channels(&tb);
        let cfg = PruneConfig {
            ratio: 0.2,
            min_channels: 2,
            drop_budget: 1.0,
            max_iterations: 3,
            finetune: TransferConfig::paper_scaled(2),
        };
        let outcome = iterative_prune_with_workers(
            &mut tb,
            data.train(),
            data.test(),
            ref_acc,
            &cfg,
            par::max_threads(),
        )
        .unwrap();
        assert!(total_channels(&tb) < before);
        assert!(!outcome.history.is_empty());
        assert!(outcome.history.iter().all(|h| h.kept));
        let rb_channels: usize = outcome
            .rollback_mr
            .units()
            .iter()
            .map(|u| u.out_channels())
            .sum();
        assert!(rb_channels >= total_channels(&tb));
    }

    #[test]
    fn iterative_prune_reverts_on_budget_violation() {
        let data = SyntheticCifar::generate(
            DatasetKind::Cifar10Like
                .config()
                .with_classes(3)
                .with_train_per_class(8)
                .with_test_per_class(4)
                .with_size(8, 8)
                .with_noise_std(0.2),
        );
        let spec = vgg::vgg_from_stages("v", &[(8, 1)], 3, 3, (8, 8));
        let mut tb = tb_from(&spec, 11);
        train_two_branch_with_workers(
            &mut tb,
            data.train(),
            &TransferConfig::paper_scaled(3),
            par::max_threads(),
        )
        .unwrap();
        let before = total_channels(&tb);
        // Reference accuracy of 2.0 is unachievable, so the first iteration
        // is rejected and reverted.
        let cfg = PruneConfig {
            ratio: 0.3,
            min_channels: 1,
            drop_budget: 0.0,
            max_iterations: 3,
            finetune: TransferConfig::paper_scaled(1),
        };
        let outcome = iterative_prune_with_workers(
            &mut tb,
            data.train(),
            data.test(),
            2.0,
            &cfg,
            par::max_threads(),
        )
        .unwrap();
        assert_eq!(total_channels(&tb), before);
        assert_eq!(outcome.history.len(), 1);
        assert!(!outcome.history[0].kept);
    }

    #[test]
    fn config_validation() {
        let mut cfg = PruneConfig::paper_scaled(1);
        cfg.ratio = 1.0;
        assert!(cfg.validate().is_err());
        let mut cfg = PruneConfig::paper_scaled(1);
        cfg.min_channels = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = PruneConfig::paper_scaled(1);
        cfg.drop_budget = -0.1;
        assert!(cfg.validate().is_err());
        assert!(PruneConfig::paper_scaled(1).validate().is_ok());
    }
}

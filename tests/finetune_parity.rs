//! Sequential-parity suite for the pruning fine-tune (paper steps ③–⑤):
//! after composite-weight pruning, fine-tuning the pruned two-branch model
//! through `train_two_branch_with_workers` at W ∈ {1, 2, 4} must match the
//! sequential reference — bit for bit at W = 1, within 1e-5 above (loss
//! components, weights of both branches, BN running statistics) — and
//! pruned channels must *stay* pruned: branch widths, channel books and
//! merge alignment are invariant across data-parallel fine-tune steps.

mod common;

use rand::rngs::StdRng;
use rand::SeedableRng;

use common::{
    assert_all_close, collect_bn_stats, collect_params, max_abs_diff, parity_tol, pin_threads,
    train_two_branch_seq,
};
use tbnet_core::pruning::{
    build_masks, composite_scores, iterative_prune_with_workers, prune_two_branch_once,
    total_channels, PruneConfig,
};
use tbnet_core::transfer::{evaluate_two_branch, train_two_branch_with_workers, TransferConfig};
use tbnet_core::TwoBranchModel;
use tbnet_data::{DatasetKind, SyntheticCifar};
use tbnet_models::{vgg, ChainNet};

fn data() -> SyntheticCifar {
    SyntheticCifar::generate(
        DatasetKind::Cifar10Like
            .config()
            .with_classes(4)
            .with_train_per_class(12)
            .with_test_per_class(6)
            .with_size(8, 8)
            .with_noise_std(0.3),
    )
}

fn cfg(epochs: usize) -> TransferConfig {
    TransferConfig {
        epochs,
        batch_size: 16,
        ..TransferConfig::paper_scaled(epochs)
    }
}

/// A transferred-then-pruned two-branch model: the state the per-iteration
/// fine-tune of Alg. 1 actually starts from.
fn pruned_model(seed: u64) -> TwoBranchModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = vgg::vgg_from_stages("parity-ft", &[(8, 1), (8, 1)], 4, 3, (8, 8));
    let victim = ChainNet::from_spec(&spec, &mut rng).unwrap();
    let mut tb = TwoBranchModel::from_victim(&victim, &mut rng).unwrap();
    let d = data();
    // A short transfer shapes the γ so composite scores are meaningful.
    train_two_branch_seq(&mut tb, d.train(), &cfg(2));
    let scores = composite_scores(&tb).unwrap();
    let masks = build_masks(&tb, &scores, 0.25, 2).unwrap();
    prune_two_branch_once(&mut tb, &masks).unwrap();
    tb
}

/// Widths, books and alignment — everything pruning rewrote and fine-tuning
/// must preserve.
fn prune_fingerprint(model: &TwoBranchModel) -> (Vec<usize>, Vec<Vec<usize>>, Vec<Vec<usize>>) {
    let widths = model
        .mr()
        .units()
        .iter()
        .chain(model.mt().units())
        .map(|u| u.out_channels())
        .collect();
    let mr_book = (0..model.unit_count())
        .map(|i| model.mr_book().unit(i).to_vec())
        .collect();
    let mt_book = (0..model.unit_count())
        .map(|i| model.mt_book().unit(i).to_vec())
        .collect();
    (widths, mr_book, mt_book)
}

/// Fine-tunes the same pruned model sequentially and data-parallel and
/// asserts full numeric parity plus mask preservation.
fn assert_finetune_parity(workers: usize, seed: u64) {
    let tol = parity_tol(workers);
    let d = data();
    let pruned = pruned_model(seed);
    let before = prune_fingerprint(&pruned);
    let mut seq = pruned.clone();
    let mut dp = pruned;
    let cfg = cfg(3).with_lambda(1e-4);

    let seq_hist = train_two_branch_seq(&mut seq, d.train(), &cfg);
    let dp_hist = train_two_branch_with_workers(&mut dp, d.train(), &cfg, workers).unwrap();

    assert_eq!(seq_hist.len(), dp_hist.len());
    for (s, p) in seq_hist.iter().zip(&dp_hist) {
        assert!(
            (s.ce_loss - p.ce_loss).abs() <= tol,
            "W={workers} epoch {}: fine-tune ce {} vs {}",
            s.epoch,
            s.ce_loss,
            p.ce_loss
        );
        assert!(
            (s.sparsity_loss - p.sparsity_loss).abs() <= tol,
            "W={workers} epoch {}: fine-tune sparsity diverged",
            s.epoch
        );
    }
    assert_all_close(
        &format!("W={workers} param"),
        &collect_params(&mut seq),
        &collect_params(&mut dp),
        tol,
    );
    assert_all_close(
        &format!("W={workers} M_R BN stat"),
        &collect_bn_stats([seq.mr()]),
        &collect_bn_stats([dp.mr()]),
        tol,
    );
    assert_all_close(
        &format!("W={workers} M_T BN stat"),
        &collect_bn_stats([seq.mt()]),
        &collect_bn_stats([dp.mt()]),
        tol,
    );

    // Pruned masks are preserved across every data-parallel fine-tune
    // step: widths, both channel books and the identity alignment are
    // exactly what pruning left behind.
    assert_eq!(
        prune_fingerprint(&dp),
        before,
        "W={workers}: fine-tune must not disturb pruning state"
    );
    assert!(
        dp.align().iter().all(|a| a.is_none()),
        "W={workers}: iterative pruning keeps identity alignment"
    );
    let batch = d.test().as_batch();
    let ys = seq.predict(&batch.images).unwrap();
    let yp = dp.predict(&batch.images).unwrap();
    assert!(
        max_abs_diff(&ys, &yp) <= tol.max(1e-4),
        "W={workers} logits diverged"
    );
}

#[test]
fn one_worker_matches_sequential() {
    pin_threads();
    assert_finetune_parity(1, 60);
}

#[test]
fn two_workers_match_sequential() {
    pin_threads();
    assert_finetune_parity(2, 61);
}

#[test]
fn four_workers_match_sequential() {
    pin_threads();
    assert_finetune_parity(4, 62);
}

#[test]
fn iterative_prune_with_workers_shrinks_and_preserves_masks() {
    // The full Alg. 1 loop with a data-parallel fine-tune: channels shrink
    // monotonically, every kept iteration's fine-tune leaves the books
    // congruent with the live widths, and the final model still predicts.
    pin_threads();
    let d = data();
    let mut rng = StdRng::seed_from_u64(63);
    let spec = vgg::vgg_from_stages("prune-dp", &[(8, 1), (8, 1)], 4, 3, (8, 8));
    let victim = ChainNet::from_spec(&spec, &mut rng).unwrap();
    let mut tb = TwoBranchModel::from_victim(&victim, &mut rng).unwrap();
    train_two_branch_with_workers(&mut tb, d.train(), &cfg(3), 4).unwrap();
    let ref_acc = evaluate_two_branch(&mut tb, d.test()).unwrap();
    let before = total_channels(&tb);
    let cfg = PruneConfig {
        ratio: 0.2,
        min_channels: 2,
        drop_budget: 1.0,
        max_iterations: 2,
        finetune: TransferConfig {
            epochs: 2,
            batch_size: 16,
            ..TransferConfig::paper_scaled(2)
        },
    };
    let outcome =
        iterative_prune_with_workers(&mut tb, d.train(), d.test(), ref_acc, &cfg, 4).unwrap();
    assert!(total_channels(&tb) < before);
    assert!(!outcome.history.is_empty());
    for (i, (ru, tu)) in tb.mr().units().iter().zip(tb.mt().units()).enumerate() {
        assert_eq!(
            tb.mr_book().unit(i).len(),
            ru.out_channels(),
            "M_R book/width mismatch at unit {i}"
        );
        assert_eq!(
            tb.mt_book().unit(i).len(),
            tu.out_channels(),
            "M_T book/width mismatch at unit {i}"
        );
    }
    let batch = d.test().as_batch();
    let logits = tb.predict(&batch.images).unwrap();
    assert_eq!(logits.dims(), &[batch.len(), 4]);
}

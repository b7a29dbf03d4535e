//! Zoo end-to-end properties: for each conv-dispatch architecture family
//! (strided-3×3 resnet, 5×5 vgg, depthwise mobile) the data-parallel trainer
//! must match the sequential one, the protect pipeline must keep pruned
//! masks and `ChannelBook`s aligned across residual skips, and the fused /
//! int8 inference paths must agree with the f32 reference on the pruned
//! deployment.

mod common;

use rand::rngs::StdRng;
use rand::SeedableRng;

use common::{
    assert_all_close, collect_params, max_abs_diff, parity_tol, pin_threads, train_victim_seq,
};
use tbnet_core::pipeline::{run_pipeline, PipelineConfig};
use tbnet_core::train::{train_victim_with_workers, TrainConfig};
use tbnet_data::{DatasetKind, SyntheticCifar};
use tbnet_models::{mobile, resnet, vgg, ChainNet, ModelSpec};
use tbnet_tensor::Tensor;

fn data() -> SyntheticCifar {
    SyntheticCifar::generate(
        DatasetKind::Cifar10Like
            .config()
            .with_classes(3)
            .with_train_per_class(24)
            .with_test_per_class(48)
            .with_size(8, 8)
            .with_noise_std(0.3),
    )
}

/// One victim per new dispatch family (the plain-3×3 family is covered by
/// `train_parity.rs` and `pipeline_end_to_end.rs`).
fn zoo_specs() -> Vec<(&'static str, ModelSpec)> {
    vec![
        (
            "resnet-strided",
            resnet::resnet_from_stages("zoo-res", &[8, 16], 1, 3, 3, (8, 8)),
        ),
        (
            "vgg5x5",
            vgg::vgg5x5_from_stages("zoo-v5", &[(8, 1), (16, 1)], 3, 3, (8, 8)),
        ),
        (
            "mobile",
            mobile::mobile_from_stages("zoo-mob", &[(8, 1), (16, 1)], 3, 3, (8, 8)),
        ),
    ]
}

/// Sequential vs data-parallel training parity for every zoo architecture
/// at W ∈ {1, 2}: loss curves and final weights bit for bit at W = 1,
/// within 1e-5 at W = 2.
#[test]
fn zoo_dp_train_matches_sequential() {
    pin_threads();
    let d = data();
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 16,
        ..TrainConfig::paper_scaled(2)
    };
    for (name, spec) in zoo_specs() {
        let mut rng = StdRng::seed_from_u64(0xA11CE);
        let seq_init = ChainNet::from_spec(&spec, &mut rng).unwrap();
        let mut seq_net = seq_init.clone();
        let seq_hist = train_victim_seq(&mut seq_net, d.train(), &cfg);
        let seq_params = collect_params(&mut seq_net);

        for workers in [1usize, 2] {
            let tol = parity_tol(workers);
            let mut dp_net = seq_init.clone();
            let dp_hist = train_victim_with_workers(&mut dp_net, d.train(), &cfg, workers).unwrap();
            assert_eq!(seq_hist.len(), dp_hist.len());
            for (s, p) in seq_hist.iter().zip(&dp_hist) {
                assert!(
                    (s.train_loss - p.train_loss).abs() <= tol,
                    "{name} W={workers} epoch {}: loss {} vs {}",
                    s.epoch,
                    s.train_loss,
                    p.train_loss
                );
            }
            assert_all_close(
                &format!("{name} W={workers} param"),
                &seq_params,
                &collect_params(&mut dp_net),
                tol,
            );
        }
    }
}

fn smoke_cfg() -> PipelineConfig {
    let mut cfg = PipelineConfig::smoke();
    cfg.prune.drop_budget = 1.0; // keep pruning iterations deterministic
    cfg.workers = tbnet_core::dp_train::WorkerPolicy::Fixed(1); // seed-deterministic
    cfg
}

fn argmax_rows(logits: &Tensor) -> Vec<usize> {
    let classes = logits.dim(1);
    logits
        .as_slice()
        .chunks(classes)
        .map(|r| {
            r.iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap_or(0)
        })
        .collect()
}

/// After iterative pruning, residual-skip endpoints must still be channel
/// congruent: equal surviving widths AND identical `ChannelBook` rows (the
/// skip adds feature maps element-wise, so the books must name the same
/// original channels in the same order on both ends).
#[test]
fn pruned_books_stay_aligned_across_residual_skips() {
    pin_threads();
    let d = data();
    let spec = resnet::resnet_from_stages("zoo-res-book", &[8, 16], 1, 3, 3, (8, 8));
    let artifacts = run_pipeline(&spec, &d, &smoke_cfg()).unwrap();
    assert!(artifacts.model.is_finalized());

    let mt_spec = artifacts.mt_spec();
    assert!(mt_spec.trace().is_ok(), "pruned M_T no longer traces");
    let skip_pairs: Vec<(usize, usize)> = mt_spec
        .units
        .iter()
        .enumerate()
        .filter_map(|(i, u)| u.skip_from.map(|j| (i, j)))
        .collect();
    assert!(!skip_pairs.is_empty(), "resnet lost its skips in the zoo");
    for (i, j) in skip_pairs {
        assert_eq!(
            mt_spec.units[i].out_channels, mt_spec.units[j].out_channels,
            "skip {j}→{i}: pruned widths diverged"
        );
        assert_eq!(
            artifacts.model.mt_book().unit(i),
            artifacts.model.mt_book().unit(j),
            "skip {j}→{i}: surviving-channel books diverged"
        );
        // Pruning is group-synchronized: both ends carry the same group, so
        // the masks that produced those books were identical by construction.
        assert_eq!(mt_spec.units[i].group, mt_spec.units[j].group);
    }
    // Book widths describe the live layers everywhere, not just at skips.
    for (i, u) in mt_spec.units.iter().enumerate() {
        assert_eq!(artifacts.model.mt_book().unit(i).len(), u.out_channels);
        assert_eq!(
            artifacts.model.mr_book().unit(i).len(),
            artifacts.mr_spec().units[i].out_channels
        );
    }
}

/// On every pruned zoo deployment, the fused f32 path must track the
/// unfused reference almost exactly and the int8 path must agree on ≥ 99%
/// of top-1 decisions.
#[test]
fn fused_and_int8_agree_on_pruned_zoo_models() {
    pin_threads();
    let d = data();
    // A longer-trained smoke config than the book-alignment test: top-1
    // agreement on a barely-trained model measures tie-breaking on near-zero
    // logit margins, not quantization quality.
    let mut cfg = PipelineConfig::paper_scaled(6, 6, 3);
    cfg.prune.max_iterations = 2;
    cfg.prune.ratio = 0.15;
    cfg.prune.drop_budget = 1.0;
    cfg.workers = tbnet_core::dp_train::WorkerPolicy::Fixed(1);
    for (name, spec) in zoo_specs() {
        let mut artifacts = run_pipeline(&spec, &d, &cfg).unwrap();
        let eval = d.test().gather(&(0..d.test().len()).collect::<Vec<_>>());
        let model = &mut artifacts.model;

        let reference = model.predict(&eval.images).unwrap();
        let fused = model.predict_fused(&eval.images).unwrap();
        let int8 = model.predict_int8(&eval.images).unwrap();

        // Fused differs from the reference only by BN-folding rounding.
        let scale = reference
            .as_slice()
            .iter()
            .fold(0.0f32, |m, x| m.max(x.abs()))
            .max(1.0);
        let fused_err = max_abs_diff(&reference, &fused);
        assert!(
            fused_err <= 1e-3 * scale,
            "{name}: fused logits drifted {fused_err} (scale {scale})"
        );

        let ra = argmax_rows(&reference);
        let fa = argmax_rows(&fused);
        let qa = argmax_rows(&int8);
        let fused_agree = ra.iter().zip(&fa).filter(|(a, b)| a == b).count();
        let int8_agree = ra.iter().zip(&qa).filter(|(a, b)| a == b).count();
        assert_eq!(
            fused_agree,
            ra.len(),
            "{name}: fused top-1 diverged from reference"
        );
        assert!(
            int8_agree as f64 / ra.len() as f64 >= 0.99,
            "{name}: int8 top-1 agreement {}/{}",
            int8_agree,
            ra.len()
        );
    }
}

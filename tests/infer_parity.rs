//! Parity of the inference fast path against the training-shaped forward.
//!
//! Three layers of the stack are compared:
//!
//! 1. **Unit level, across the kernel dispatch matrix** — one conv→BN→ReLU
//!    unit per geometry (1×1 / 3×3-s1-p1 / general stride & pad edges,
//!    batch 1 and 16, with and without pooling, skip and merge epilogues).
//!    `Unit::forward_inference` folds BN into the packed weight and runs
//!    the epilogue inside the conv kernel; it must match `forward(Eval)`
//!    to ≤1e-5.
//! 2. **Model level** — `ChainNet::predict_inference` and
//!    `TwoBranchModel::predict_fused` against their unfused references on
//!    both paper-family geometries (VGG chain and bottleneck-residual with
//!    identity skips). Fold rounding compounds across depth, so the logit
//!    tolerance is 1e-4.
//! 3. **Int8 branch** — on a *trained* smoke deployment, the quantized
//!    rich branch must agree with the unfused f32 reference on ≥99% of
//!    top-1 decisions; the max absolute logit error is printed.
//! 4. **One merge loop** — split inference runs the same `M_T` step as
//!    `predict_fused`, so on a finalized residual model with gathering
//!    alignments their logits are bitwise equal.
//! 5. **Thread-count invariance** — `predict_fused`, `predict_int8` and
//!    `ChainNet::predict_inference` give bitwise-equal logits at 1, 2 and
//!    4 pool threads (same batch size; batch-size invariance is not
//!    claimed).

use rand::rngs::StdRng;
use rand::SeedableRng;
use tbnet_core::deploy::run_split_inference;
use tbnet_core::pipeline::{run_pipeline, PipelineConfig};
use tbnet_core::pruning::{build_masks, composite_scores, prune_two_branch_once};
use tbnet_core::TwoBranchModel;
use tbnet_data::{DatasetKind, SyntheticCifar};
use tbnet_models::{mobile, resnet, vgg, ChainNet, HeadSpec, ModelSpec, UnitSpec};
use tbnet_nn::{Layer, Mode};
use tbnet_tensor::{init, par, BackendKind, Tensor};

fn max_abs_diff(a: &Tensor, b: &Tensor) -> f32 {
    assert_eq!(a.dims(), b.dims(), "shape mismatch");
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f32, f32::max)
}

/// Builds a warmed single-unit net: `c_in → c_out` with the given conv
/// geometry, BN running statistics warmed by a few training forwards.
#[allow(clippy::too_many_arguments)] // a test-matrix constructor, one arg per axis
fn warmed_unit_net(
    c_in: usize,
    c_out: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    pool: Option<usize>,
    hw: usize,
    backend: BackendKind,
    rng: &mut StdRng,
) -> ChainNet {
    let spec = ModelSpec {
        name: format!("unit-k{kernel}s{stride}p{pad}"),
        in_channels: c_in,
        input_hw: (hw, hw),
        classes: 2,
        units: vec![UnitSpec {
            out_channels: c_out,
            kernel,
            stride,
            pad,
            pool_after: pool,
            group: 0,
            skip_from: None,
            depthwise: false,
        }],
        head: HeadSpec::GapLinear,
    };
    let mut net = ChainNet::from_spec(&spec, rng).unwrap();
    net.set_backend(backend);
    for _ in 0..3 {
        let warm = init::randn(&[4, c_in, hw, hw], 1.0, rng);
        net.forward(&warm, Mode::Train).unwrap();
    }
    net
}

#[test]
fn unit_fused_matches_eval_across_dispatch_matrix() {
    let mut rng = StdRng::seed_from_u64(41);
    // (kernel, stride, pad, pool): the 1×1 strided-matmul path, the direct
    // 3×3 stencil, the general im2col panels (5×5, stride 2, pad 0 edge)
    // and the pooled variant.
    let geometries = [
        (1usize, 1usize, 0usize, None),
        (1, 2, 0, None),
        (3, 1, 1, None),
        (3, 2, 1, None),
        (3, 1, 0, None),
        (5, 1, 2, None),
        (3, 1, 1, Some(2)),
    ];
    for backend in [BackendKind::Parallel, BackendKind::Naive] {
        for &(k, s, p, pool) in &geometries {
            for batch in [1usize, 16] {
                let mut net = warmed_unit_net(5, 7, k, s, p, pool, 12, backend, &mut rng);
                let x = init::randn(&[batch, 5, 12, 12], 1.0, &mut rng);
                let reference = net.units_mut()[0].forward(&x, None, Mode::Eval).unwrap();
                let fused = net.units_mut()[0]
                    .forward_inference(&x, None, None)
                    .unwrap();
                let err = max_abs_diff(&reference, &fused);
                assert!(
                    err <= 1e-5,
                    "{backend:?} k{k} s{s} p{p} pool{pool:?} b{batch}: \
                     fused unit deviates by {err}"
                );
            }
        }
    }
}

#[test]
fn unit_skip_and_merge_epilogues_match_unfused_composition() {
    let mut rng = StdRng::seed_from_u64(43);
    for pool in [None, Some(2)] {
        // Same-width 3×3 s1 p1 so a skip tensor with the unit's output shape
        // exists; the skip adds post-BN (AddRelu), the merge adds after the
        // activation and pooling (ReluAdd / post-pool add).
        let mut net = warmed_unit_net(6, 6, 3, 1, 1, pool, 10, BackendKind::Parallel, &mut rng);
        let x = init::randn(&[4, 6, 10, 10], 1.0, &mut rng);

        let out_dims = net.units_mut()[0]
            .forward(&x, None, Mode::Eval)
            .unwrap()
            .dims()
            .to_vec();
        let pre_pool_dims = if pool.is_some() {
            vec![4, 6, 10, 10]
        } else {
            out_dims.clone()
        };

        // Skip epilogue: reference adds pre-activation inside forward().
        let skip = init::randn(&pre_pool_dims, 1.0, &mut rng);
        let reference = net.units_mut()[0]
            .forward(&x, Some(&skip), Mode::Eval)
            .unwrap();
        let fused = net.units_mut()[0]
            .forward_inference(&x, Some(&skip), None)
            .unwrap();
        let err = max_abs_diff(&reference, &fused);
        assert!(
            err <= 1e-5,
            "skip epilogue (pool {pool:?}) deviates by {err}"
        );

        // Merge epilogue: reference adds after the full unit.
        let merge = init::randn(&out_dims, 1.0, &mut rng);
        let mut reference = net.units_mut()[0].forward(&x, None, Mode::Eval).unwrap();
        for (r, m) in reference.as_mut_slice().iter_mut().zip(merge.as_slice()) {
            *r += m;
        }
        let fused = net.units_mut()[0]
            .forward_inference(&x, None, Some(&merge))
            .unwrap();
        let err = max_abs_diff(&reference, &fused);
        assert!(
            err <= 1e-5,
            "merge epilogue (pool {pool:?}) deviates by {err}"
        );
    }
}

#[test]
fn chain_predict_inference_matches_predict() {
    let mut rng = StdRng::seed_from_u64(47);
    let specs = [
        vgg::vgg_from_stages("vgg-par", &[(6, 2), (8, 2)], 4, 3, (16, 16)),
        resnet::bottleneck_from_stages("bneck-par", &[8, 12], 2, 4, 3, (16, 16)),
    ];
    for spec in specs {
        let mut net = ChainNet::from_spec(&spec, &mut rng).unwrap();
        net.set_backend(BackendKind::Parallel);
        for _ in 0..3 {
            let warm = init::randn(&[4, 3, 16, 16], 1.0, &mut rng);
            net.forward(&warm, Mode::Train).unwrap();
        }
        let x = init::randn(&[8, 3, 16, 16], 1.0, &mut rng);
        let reference = net.forward(&x, Mode::Eval).unwrap();
        let fused = net.predict_inference(&x).unwrap();
        let err = max_abs_diff(&reference, &fused);
        assert!(
            err <= 1e-4,
            "{}: predict_inference deviates from eval forward by {err}",
            spec.name
        );
    }
}

#[test]
fn two_branch_predict_fused_matches_predict() {
    let mut rng = StdRng::seed_from_u64(53);
    let specs = [
        vgg::vgg_from_stages("vgg-2b", &[(6, 2), (8, 2)], 4, 3, (16, 16)),
        resnet::bottleneck_from_stages("bneck-2b", &[8, 12], 2, 4, 3, (16, 16)),
    ];
    for spec in specs {
        let victim = ChainNet::from_spec(&spec, &mut rng).unwrap();
        let mut model = TwoBranchModel::from_victim(&victim, &mut rng).unwrap();
        for _ in 0..3 {
            let warm = init::randn(&[4, 3, 16, 16], 1.0, &mut rng);
            model.forward(&warm, Mode::Train).unwrap();
        }
        for batch in [1usize, 16] {
            let x = init::randn(&[batch, 3, 16, 16], 1.0, &mut rng);
            let reference = model.predict(&x).unwrap();
            let fused = model.predict_fused(&x).unwrap();
            let err = max_abs_diff(&reference, &fused);
            assert!(
                err <= 1e-4,
                "{} b{batch}: predict_fused deviates from predict by {err}",
                spec.name
            );
        }
    }
}

#[test]
fn int8_branch_top1_agreement_on_trained_deployment() {
    let data = SyntheticCifar::generate(
        DatasetKind::Cifar10Like
            .config()
            .with_classes(4)
            .with_train_per_class(24)
            .with_test_per_class(32)
            .with_size(12, 12)
            .with_noise_std(0.3),
    );
    let spec = vgg::vgg_from_stages("agree", &[(12, 1), (16, 1)], 4, 3, (12, 12));
    let mut cfg = PipelineConfig::smoke();
    cfg.prune.drop_budget = 1.0;
    let artifacts = run_pipeline(&spec, &data, &cfg).expect("smoke pipeline trains");
    let mut model = artifacts.model;
    let eval = data
        .test()
        .gather(&(0..data.test().len()).collect::<Vec<_>>());

    let reference = model.predict(&eval.images).unwrap();
    let int8 = model.predict_int8(&eval.images).unwrap();

    let classes = reference.dim(1);
    let argmax = |t: &Tensor| -> Vec<usize> {
        t.as_slice()
            .chunks(classes)
            .map(|r| {
                r.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap()
            })
            .collect()
    };
    let ra = argmax(&reference);
    let qa = argmax(&int8);
    let agree = ra.iter().zip(&qa).filter(|(a, b)| a == b).count();
    let agreement = agree as f64 / ra.len() as f64;
    let n = ra.len();
    let max_err = max_abs_diff(&reference, &int8);
    println!("int8 agreement: top-1 {agreement:.4} over {n} samples, max |Δlogit| {max_err:.5}");
    assert!(
        agreement >= 0.99,
        "int8 top-1 agreement {agreement:.4} below 0.99 (max |Δlogit| {max_err:.5})"
    );
}

/// A finalized residual two-branch model whose merges gather: random BN
/// scales make the composite scores distinct, one pruning pass narrows
/// both branches, and rollback restores the wider `M_R`. No training.
fn finalized_resnet(rng: &mut StdRng) -> TwoBranchModel {
    let spec = resnet::resnet_from_stages("split-res", &[8, 12], 1, 4, 3, (16, 16));
    let victim = ChainNet::from_spec(&spec, rng).unwrap();
    let mut model = TwoBranchModel::from_victim(&victim, rng).unwrap();
    model
        .forward(&init::randn(&[4, 3, 16, 16], 1.0, rng), Mode::Train)
        .unwrap();
    for unit in model.mr_mut().units_mut() {
        let c = unit.out_channels();
        unit.bn_mut().gamma_mut().value = init::randn(&[c], 1.0, rng);
    }
    for unit in model.mt_mut().units_mut() {
        let c = unit.out_channels();
        unit.bn_mut().gamma_mut().value = init::randn(&[c], 1.0, rng);
    }
    let (prev_mr, prev_book) = (model.mr().clone(), model.mr_book().clone());
    let scores = composite_scores(&model).unwrap();
    let masks = build_masks(&model, &scores, 0.5, 2).unwrap();
    prune_two_branch_once(&mut model, &masks).unwrap();
    model.finalize_with_rollback(prev_mr, prev_book).unwrap();
    model
}

#[test]
fn split_inference_equals_fused_prediction_bitwise() {
    let mut rng = StdRng::seed_from_u64(59);
    let mut model = finalized_resnet(&mut rng);
    assert!(
        model
            .mt()
            .units()
            .iter()
            .any(|u| u.spec().skip_from.is_some()),
        "the model has skips"
    );
    let gathers = model.align().iter().filter(|a| a.is_some()).count();
    assert!(gathers >= 2, "only {gathers} merges gather");
    let x = init::randn(&[21, 3, 16, 16], 1.0, &mut rng);
    let fused = model.predict_fused(&x).unwrap();
    let split = run_split_inference(&mut model, &x).unwrap();
    assert_eq!(split.logits.dims(), fused.dims());
    assert!(
        split
            .logits
            .as_slice()
            .iter()
            .zip(fused.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "split inference differs from predict_fused"
    );
}

#[test]
fn inference_is_bitwise_equal_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(61);
    let specs = [
        resnet::resnet_from_stages("thr-res", &[8, 12], 1, 4, 3, (16, 16)),
        mobile::mobile_from_stages("thr-mob", &[(8, 1), (16, 1)], 4, 3, (16, 16)),
        vgg::vgg_from_stages("thr-vgg", &[(8, 1), (12, 1)], 4, 3, (16, 16)),
    ];
    let mut nets: Vec<ChainNet> = Vec::new();
    let mut models: Vec<TwoBranchModel> = Vec::new();
    for spec in &specs {
        let mut net = ChainNet::from_spec(spec, &mut rng).unwrap();
        net.forward(&init::randn(&[4, 3, 16, 16], 1.0, &mut rng), Mode::Train)
            .unwrap();
        models.push(TwoBranchModel::from_victim(&net, &mut rng).unwrap());
        nets.push(net);
    }
    models.push(finalized_resnet(&mut rng));
    let x = init::randn(&[8, 3, 16, 16], 1.0, &mut rng);
    let bits = |t: Tensor| -> Vec<u32> { t.as_slice().iter().map(|v| v.to_bits()).collect() };
    let mut run = |threads: usize| -> Vec<Vec<u32>> {
        par::set_max_threads(threads);
        let mut out = Vec::new();
        for net in &mut nets {
            out.push(bits(net.predict_inference(&x).unwrap()));
        }
        for model in &mut models {
            out.push(bits(model.predict_fused(&x).unwrap()));
            out.push(bits(model.predict_int8(&x).unwrap()));
        }
        out
    };
    let one = run(1);
    let (two, four) = (run(2), run(4));
    par::reset_max_threads();
    for (i, (a, (b, c))) in one.iter().zip(two.iter().zip(&four)).enumerate() {
        assert_eq!(a, b, "output {i}: 1 vs 2 threads");
        assert_eq!(a, c, "output {i}: 1 vs 4 threads");
    }
}

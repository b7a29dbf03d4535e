//! Property tests pinning the `Parallel` backend to the `Naive` oracle:
//! every accelerated kernel must agree with the single-threaded reference
//! within 1e-5 (relative) across randomized shapes, including the
//! stride/pad edge cases admitted by `conv_output_size`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tbnet_tensor::ops::{
    col2im, col2im_panel, conv_output_size, im2col, im2col_panel, PackedConv2dWeight,
};
use tbnet_tensor::{init, par, Backend, BackendKind, Tensor};

/// Force multi-chunk code paths even on single-core hosts: with the
/// default thread cap of 1, every chunked kernel would collapse to one
/// chunk and the chunk-boundary arithmetic would go untested.
fn pin_threads() {
    par::set_max_threads(3);
}

fn close(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.dims(), b.dims(), "{what}: shape mismatch");
    // Tolerance is 1e-5 relative to the element — or to the tensor's
    // magnitude scale, whichever is larger: reduction outputs can cancel to
    // values far smaller than their accumulation terms, where per-element
    // relative error is dominated by reassociation ulps, not bugs. Real
    // chunking bugs produce errors at the tensor's own scale and still trip
    // this.
    let scale = a.as_slice().iter().fold(0.0f32, |m, x| m.max(x.abs()));
    let tol = 1e-5 * (1.0 + scale);
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert!(
            (x - y).abs() <= 1e-5 * (1.0 + x.abs()) || (x - y).abs() <= tol,
            "{what}[{i}]: naive {x} vs parallel {y} (tol {tol})"
        );
    }
}

fn naive() -> &'static dyn Backend {
    BackendKind::Naive.imp()
}

fn parallel() -> &'static dyn Backend {
    BackendKind::Parallel.imp()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All three matmul variants agree across random (possibly lopsided)
    /// shapes, spanning the small/naive and blocked/threaded code paths.
    #[test]
    fn matmul_variants_agree(m in 1usize..40, k in 1usize..40, n in 1usize..40, seed in 0u64..1000) {
        pin_threads();
        let mut rng = StdRng::seed_from_u64(seed);
        let a = init::randn(&[m, k], 1.0, &mut rng);
        let b = init::randn(&[k, n], 1.0, &mut rng);
        close(
            &naive().matmul(&a, &b).unwrap(),
            &parallel().matmul(&a, &b).unwrap(),
            "matmul",
        );
        let at = init::randn(&[k, m], 1.0, &mut rng);
        close(
            &naive().matmul_transpose_a(&at, &b).unwrap(),
            &parallel().matmul_transpose_a(&at, &b).unwrap(),
            "matmul_transpose_a",
        );
        let bt = init::randn(&[n, k], 1.0, &mut rng);
        close(
            &naive().matmul_transpose_b(&a, &bt).unwrap(),
            &parallel().matmul_transpose_b(&a, &bt).unwrap(),
            "matmul_transpose_b",
        );
    }

    /// A paper-scale matmul takes the blocked/threaded path; agreement must
    /// hold there too, not just on tiny inputs.
    #[test]
    fn large_matmul_agrees(seed in 0u64..50) {
        pin_threads();
        let mut rng = StdRng::seed_from_u64(seed);
        let a = init::randn(&[96, 130], 1.0, &mut rng);
        let b = init::randn(&[130, 75], 1.0, &mut rng);
        close(
            &naive().matmul(&a, &b).unwrap(),
            &parallel().matmul(&a, &b).unwrap(),
            "large matmul",
        );
    }

    /// Conv forward/backward parity across randomized geometry, including
    /// stride/pad combinations at the edge of validity.
    #[test]
    fn conv2d_agrees(
        n in 1usize..4,
        c in 1usize..4,
        hw in 4usize..10,
        o in 1usize..5,
        kern in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..3,
        seed in 0u64..1000,
    ) {
        pin_threads();
        // Keep only geometries conv_output_size admits (kernel must fit in
        // the padded input).
        if conv_output_size(hw, kern, stride, pad).is_err() {
            return Ok(());
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let x = init::randn(&[n, c, hw, hw], 1.0, &mut rng);
        let w = init::randn(&[o, c, kern, kern], 0.5, &mut rng);
        let bias = init::randn(&[o], 0.1, &mut rng);

        let fwd_naive = naive().conv2d_forward(&x, &w, Some(&bias), stride, pad).unwrap();
        let fwd_par = parallel().conv2d_forward(&x, &w, Some(&bias), stride, pad).unwrap();
        close(&fwd_naive, &fwd_par, "conv2d_forward");

        let grad = init::randn(fwd_naive.dims(), 1.0, &mut rng);
        let bwd_naive = naive().conv2d_backward(&x, &w, &grad, stride, pad, true).unwrap();
        let bwd_par = parallel().conv2d_backward(&x, &w, &grad, stride, pad, true).unwrap();
        close(&bwd_naive.grad_input, &bwd_par.grad_input, "conv2d grad_input");
        close(&bwd_naive.grad_weight, &bwd_par.grad_weight, "conv2d grad_weight");
        close(
            bwd_naive.grad_bias.as_ref().unwrap(),
            bwd_par.grad_bias.as_ref().unwrap(),
            "conv2d grad_bias",
        );
    }

    /// Elementwise and reduction kernels agree (sizes straddle the
    /// parallelization threshold).
    #[test]
    fn elementwise_and_reductions_agree(
        n in 1usize..6,
        c in 1usize..8,
        hw in 1usize..12,
        seed in 0u64..1000,
    ) {
        pin_threads();
        let mut rng = StdRng::seed_from_u64(seed);
        let a = init::randn(&[n, c, hw, hw], 1.0, &mut rng);
        let b = init::randn(&[n, c, hw, hw], 1.0, &mut rng);

        close(&naive().add(&a, &b).unwrap(), &parallel().add(&a, &b).unwrap(), "add");
        close(&naive().sub(&a, &b).unwrap(), &parallel().sub(&a, &b).unwrap(), "sub");
        close(
            &naive().hadamard(&a, &b).unwrap(),
            &parallel().hadamard(&a, &b).unwrap(),
            "hadamard",
        );
        close(
            &naive().scale(&a, -1.37),
            &parallel().scale(&a, -1.37),
            "scale",
        );

        let (mean_n, var_n) = naive().channel_mean_var(&a).unwrap();
        let (mean_p, var_p) = parallel().channel_mean_var(&a).unwrap();
        close(&mean_n, &mean_p, "channel mean");
        close(&var_n, &var_p, "channel var");
        close(
            &naive().channel_sum(&a).unwrap(),
            &parallel().channel_sum(&a).unwrap(),
            "channel_sum",
        );

        let logits = init::randn(&[n * c, hw * hw], 2.0, &mut rng);
        close(
            &naive().softmax_rows(&logits).unwrap(),
            &parallel().softmax_rows(&logits).unwrap(),
            "softmax_rows",
        );
        close(
            &naive().sum_axis0(&logits).unwrap(),
            &parallel().sum_axis0(&logits).unwrap(),
            "sum_axis0",
        );
    }

    /// BatchNorm channel kernels and pooling agree.
    #[test]
    fn bn_and_pool_agree(
        n in 1usize..4,
        c in 1usize..6,
        half in 1usize..6,
        seed in 0u64..1000,
    ) {
        pin_threads();
        let hw = half * 2; // even spatial so 2x2 max pooling is valid
        let mut rng = StdRng::seed_from_u64(seed);
        let x = init::randn(&[n, c, hw, hw], 1.0, &mut rng);
        let (mean, var) = naive().channel_mean_var(&x).unwrap();
        let inv_std = var.map(|v| 1.0 / (v + 1e-5).sqrt());
        let gamma = init::randn(&[c], 1.0, &mut rng);
        let beta = init::randn(&[c], 1.0, &mut rng);

        let xh_n = naive().bn_normalize(&x, &mean, &inv_std).unwrap();
        let xh_p = parallel().bn_normalize(&x, &mean, &inv_std).unwrap();
        close(&xh_n, &xh_p, "bn_normalize");
        close(
            &naive().channel_affine(&xh_n, &gamma, &beta).unwrap(),
            &parallel().channel_affine(&xh_n, &gamma, &beta).unwrap(),
            "channel_affine",
        );

        let g = init::randn(&[n, c, hw, hw], 1.0, &mut rng);
        let (sd_n, sdx_n) = naive().bn_backward_reduce(&g, &xh_n).unwrap();
        let (sd_p, sdx_p) = parallel().bn_backward_reduce(&g, &xh_n).unwrap();
        close(&sd_n, &sd_p, "bn sum_dy");
        close(&sdx_n, &sdx_p, "bn sum_dy_xhat");
        close(
            &naive().bn_input_grad(&g, &xh_n, &gamma, &inv_std, &sd_n, &sdx_n).unwrap(),
            &parallel().bn_input_grad(&g, &xh_n, &gamma, &inv_std, &sd_n, &sdx_n).unwrap(),
            "bn_input_grad",
        );

        let (pool_n, idx_n) = naive().maxpool2d_forward(&x, 2).unwrap();
        let (pool_p, idx_p) = parallel().maxpool2d_forward(&x, 2).unwrap();
        close(&pool_n, &pool_p, "maxpool fwd");
        let pg = init::randn(pool_n.dims(), 1.0, &mut rng);
        close(
            &naive().maxpool2d_backward(&pg, &idx_n).unwrap(),
            &parallel().maxpool2d_backward(&pg, &idx_p).unwrap(),
            "maxpool bwd",
        );

        let gap_n = naive().avgpool2d_global_forward(&x).unwrap();
        close(
            &gap_n,
            &parallel().avgpool2d_global_forward(&x).unwrap(),
            "gap fwd",
        );
        let gg = init::randn(gap_n.dims(), 1.0, &mut rng);
        close(
            &naive().avgpool2d_global_backward(&gg, x.dims()).unwrap(),
            &parallel().avgpool2d_global_backward(&gg, x.dims()).unwrap(),
            "gap bwd",
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The panel-wise unfold tiles exactly to the whole-matrix `im2col`,
    /// and `col2im_panel` is its adjoint: `⟨im2col(x), y⟩ = ⟨x, col2im(y)⟩`
    /// assembled panel by panel over an arbitrary row partition. Adjointness
    /// is what makes the fused backward the true gradient of the fused
    /// forward.
    #[test]
    fn panel_unfold_tiles_and_is_adjoint(
        c in 1usize..4,
        h in 3usize..9,
        w in 3usize..9,
        kern in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..3,
        tile in 1usize..4,
        seed in 0u64..1000,
    ) {
        if conv_output_size(h, kern, stride, pad).is_err()
            || conv_output_size(w, kern, stride, pad).is_err()
        {
            return Ok(());
        }
        let oh = conv_output_size(h, kern, stride, pad).unwrap();
        let ow = conv_output_size(w, kern, stride, pad).unwrap();
        let ckk = c * kern * kern;
        let spatial = oh * ow;
        let mut rng = StdRng::seed_from_u64(seed);
        let x = init::randn(&[c, h, w], 1.0, &mut rng);
        let y = init::randn(&[ckk, spatial], 1.0, &mut rng);

        // Assemble the unfold panel by panel…
        let mut assembled = vec![0.0f32; ckk * spatial];
        let mut oh0 = 0;
        while oh0 < oh {
            let oh1 = (oh0 + tile).min(oh);
            let t = (oh1 - oh0) * ow;
            let mut panel = vec![0.0f32; ckk * t];
            im2col_panel(x.as_slice(), c, h, w, kern, kern, stride, pad, oh0, oh1, &mut panel)
                .unwrap();
            for row in 0..ckk {
                assembled[row * spatial + oh0 * ow..row * spatial + oh0 * ow + t]
                    .copy_from_slice(&panel[row * t..(row + 1) * t]);
            }
            oh0 = oh1;
        }
        // …and it must equal the whole-matrix reference unfold.
        let full = im2col(x.as_slice(), c, h, w, kern, kern, stride, pad).unwrap();
        prop_assert_eq!(full.as_slice(), assembled.as_slice());

        // Adjointness through the panel fold.
        let lhs: f64 = assembled
            .iter()
            .zip(y.as_slice())
            .map(|(a, b)| (a * b) as f64)
            .sum();
        let mut folded = vec![0.0f32; c * h * w];
        let mut oh0 = 0;
        while oh0 < oh {
            let oh1 = (oh0 + tile).min(oh);
            let t = (oh1 - oh0) * ow;
            let mut y_panel = vec![0.0f32; ckk * t];
            for row in 0..ckk {
                y_panel[row * t..(row + 1) * t].copy_from_slice(
                    &y.as_slice()[row * spatial + oh0 * ow..row * spatial + oh0 * ow + t],
                );
            }
            col2im_panel(&y_panel, &mut folded, c, h, w, kern, kern, stride, pad, oh0, oh1)
                .unwrap();
            oh0 = oh1;
        }
        let rhs: f64 = folded
            .iter()
            .zip(x.as_slice())
            .map(|(a, b)| (a * b) as f64)
            .sum();
        prop_assert!((lhs - rhs).abs() < 1e-2, "⟨im2col x, y⟩ {lhs} vs ⟨x, col2im y⟩ {rhs}");

        // Panel fold assembled over the partition equals the whole-matrix
        // fold.
        let mut folded_full = vec![0.0f32; c * h * w];
        col2im(&y, &mut folded_full, c, h, w, kern, kern, stride, pad).unwrap();
        for (i, (a, b)) in folded.iter().zip(&folded_full).enumerate() {
            prop_assert!((a - b).abs() <= 1e-5 * (1.0 + a.abs()), "col2im[{i}]: {a} vs {b}");
        }
    }
}

/// Pins every shape-dispatch path of the fused conv engine (1×1 pure
/// matmul, 1×1 strided, direct 3×3, panel-wise im2col fallback) to the
/// naive oracle across stride/pad edge shapes, on both the raw-weight and
/// the packed (layer steady-state) entry points.
#[test]
fn fused_dispatch_paths_match_oracle() {
    pin_threads();
    let mut rng = StdRng::seed_from_u64(77);
    // (c, hw, o, kern, stride, pad, label)
    let cases: &[(usize, usize, usize, usize, usize, usize, &str)] = &[
        (8, 10, 12, 1, 1, 0, "1x1 pure matmul"),
        (8, 10, 12, 1, 2, 0, "1x1 strided matmul"),
        (8, 11, 12, 1, 3, 0, "1x1 stride 3"),
        (8, 10, 12, 1, 1, 1, "1x1 padded (panel fallback)"),
        (6, 10, 8, 3, 1, 1, "direct 3x3"),
        (3, 9, 4, 3, 1, 1, "direct 3x3 odd width"),
        (6, 10, 7, 3, 1, 1, "direct 3x3 remainder channels"),
        (
            64,
            12,
            64,
            3,
            1,
            1,
            "3x3 above direct flop ceiling (panels)",
        ),
        (6, 10, 8, 3, 2, 1, "3x3 strided (panel fallback)"),
        (6, 10, 8, 3, 1, 0, "3x3 unpadded (panel fallback)"),
        (6, 10, 8, 3, 1, 2, "3x3 over-padded (panel fallback)"),
        (4, 12, 6, 5, 1, 2, "5x5 panels"),
        (4, 12, 6, 5, 2, 2, "5x5 strided panels"),
        (4, 9, 6, 4, 3, 1, "4x4 stride 3 panels"),
        (2, 5, 3, 5, 1, 0, "kernel == input (single output)"),
        (2, 4, 3, 7, 1, 2, "kernel larger than input, padded"),
    ];
    for &(c, hw, o, kern, stride, pad, label) in cases {
        assert!(
            conv_output_size(hw, kern, stride, pad).is_ok(),
            "bad case {label}"
        );
        for n in [1usize, 3] {
            let x = init::randn(&[n, c, hw, hw], 1.0, &mut rng);
            let w = init::randn(&[o, c, kern, kern], 0.5, &mut rng);
            let bias = init::randn(&[o], 0.1, &mut rng);
            let packed = PackedConv2dWeight::new(&w).unwrap();

            let fwd_n = naive()
                .conv2d_forward(&x, &w, Some(&bias), stride, pad)
                .unwrap();
            let fwd_p = parallel()
                .conv2d_forward(&x, &w, Some(&bias), stride, pad)
                .unwrap();
            close(&fwd_n, &fwd_p, &format!("{label} fwd (raw weight)"));
            let fwd_pk = parallel()
                .conv2d_forward_packed(&x, &packed, Some(&bias), stride, pad)
                .unwrap();
            close(&fwd_n, &fwd_pk, &format!("{label} fwd (packed)"));

            let g = init::randn(fwd_n.dims(), 1.0, &mut rng);
            let bwd_n = naive()
                .conv2d_backward(&x, &w, &g, stride, pad, true)
                .unwrap();
            let bwd_pk = parallel()
                .conv2d_backward_packed(&x, &packed, &g, stride, pad, true)
                .unwrap();
            close(
                &bwd_n.grad_input,
                &bwd_pk.grad_input,
                &format!("{label} grad_input"),
            );
            close(
                &bwd_n.grad_weight,
                &bwd_pk.grad_weight,
                &format!("{label} grad_weight"),
            );
            close(
                bwd_n.grad_bias.as_ref().unwrap(),
                bwd_pk.grad_bias.as_ref().unwrap(),
                &format!("{label} grad_bias"),
            );
        }
    }
}

/// Training-scale tensors cross the parallel kernels' work thresholds
/// (MIN_PAR_ELEMS / MIN_PAR_FLOPS), so with the thread cap pinned above 1
/// this exercises the real multi-chunk branches — chunk offsets, partial
/// folds — rather than the small-input naive fallbacks.
#[test]
fn training_scale_parity_multi_chunk() {
    pin_threads();
    let mut rng = StdRng::seed_from_u64(9);
    // 32*64*32*32 = 2M elements: far beyond every threshold.
    let a = init::randn(&[32, 64, 32, 32], 1.0, &mut rng);
    let b = init::randn(&[32, 64, 32, 32], 1.0, &mut rng);

    close(
        &naive().add(&a, &b).unwrap(),
        &parallel().add(&a, &b).unwrap(),
        "large add",
    );
    let mut aa = a.clone();
    let mut ab = a.clone();
    naive().add_scaled(&mut aa, &b, 0.37).unwrap();
    parallel().add_scaled(&mut ab, &b, 0.37).unwrap();
    close(&aa, &ab, "large add_scaled");
    close(
        &naive().unary(&a, &|x| x.max(0.0)),
        &parallel().unary(&a, &|x| x.max(0.0)),
        "large unary relu",
    );

    let (mean, var) = naive().channel_mean_var(&a).unwrap();
    let (mean_p, var_p) = parallel().channel_mean_var(&a).unwrap();
    close(&mean, &mean_p, "large channel mean");
    close(&var, &var_p, "large channel var");
    let inv_std = var.map(|v| 1.0 / (v + 1e-5).sqrt());
    let gamma = init::randn(&[64], 1.0, &mut rng);
    let beta = init::randn(&[64], 1.0, &mut rng);
    let xh = naive().bn_normalize(&a, &mean, &inv_std).unwrap();
    close(
        &xh,
        &parallel().bn_normalize(&a, &mean, &inv_std).unwrap(),
        "large bn_normalize",
    );
    close(
        &naive().channel_affine(&xh, &gamma, &beta).unwrap(),
        &parallel().channel_affine(&xh, &gamma, &beta).unwrap(),
        "large channel_affine",
    );
    let (sd, sdx) = naive().bn_backward_reduce(&b, &xh).unwrap();
    let (sd_p, sdx_p) = parallel().bn_backward_reduce(&b, &xh).unwrap();
    close(&sd, &sd_p, "large bn sum_dy");
    close(&sdx, &sdx_p, "large bn sum_dy_xhat");
    close(
        &naive()
            .bn_input_grad(&b, &xh, &gamma, &inv_std, &sd, &sdx)
            .unwrap(),
        &parallel()
            .bn_input_grad(&b, &xh, &gamma, &inv_std, &sd, &sdx)
            .unwrap(),
        "large bn_input_grad",
    );

    let (pool_n, idx_n) = naive().maxpool2d_forward(&a, 2).unwrap();
    let (pool_p, idx_p) = parallel().maxpool2d_forward(&a, 2).unwrap();
    close(&pool_n, &pool_p, "large maxpool fwd");
    let pg = init::randn(pool_n.dims(), 1.0, &mut rng);
    close(
        &naive().maxpool2d_backward(&pg, &idx_n).unwrap(),
        &parallel().maxpool2d_backward(&pg, &idx_p).unwrap(),
        "large maxpool bwd",
    );
    close(
        &naive().avgpool2d_global_forward(&a).unwrap(),
        &parallel().avgpool2d_global_forward(&a).unwrap(),
        "large gap fwd",
    );

    let m = init::randn(&[512, 160], 2.0, &mut rng);
    close(
        &naive().softmax_rows(&m).unwrap(),
        &parallel().softmax_rows(&m).unwrap(),
        "large softmax_rows",
    );
    close(
        &naive().sum_axis0(&m).unwrap(),
        &parallel().sum_axis0(&m).unwrap(),
        "large sum_axis0",
    );
    let mut bias_n = m.clone();
    let mut bias_p = m.clone();
    let bias = init::randn(&[160], 1.0, &mut rng);
    naive().add_bias_rows(&mut bias_n, &bias).unwrap();
    parallel().add_bias_rows(&mut bias_p, &bias).unwrap();
    close(&bias_n, &bias_p, "large add_bias_rows");

    // Conv at ResNet scale (multi-sample, multi-chunk backward).
    let x = init::randn(&[6, 16, 24, 24], 1.0, &mut rng);
    let w = init::randn(&[24, 16, 3, 3], 0.3, &mut rng);
    let fwd_n = naive().conv2d_forward(&x, &w, None, 1, 1).unwrap();
    let fwd_p = parallel().conv2d_forward(&x, &w, None, 1, 1).unwrap();
    close(&fwd_n, &fwd_p, "large conv fwd");
    let g = init::randn(fwd_n.dims(), 1.0, &mut rng);
    let bwd_n = naive().conv2d_backward(&x, &w, &g, 1, 1, false).unwrap();
    let bwd_p = parallel().conv2d_backward(&x, &w, &g, 1, 1, false).unwrap();
    close(
        &bwd_n.grad_input,
        &bwd_p.grad_input,
        "large conv grad_input",
    );
    close(
        &bwd_n.grad_weight,
        &bwd_p.grad_weight,
        "large conv grad_weight",
    );
}

/// Backend choice must not change what a whole network computes: pinning a
/// model to Naive vs Parallel yields matching logits.
#[test]
fn whole_model_forward_parity() {
    use tbnet::models::{vgg, ChainNet};
    use tbnet::nn::{Layer, Mode};

    let spec = vgg::vgg_tiny(10, 3, (16, 16));
    let mut rng = StdRng::seed_from_u64(42);
    let mut net = ChainNet::from_spec(&spec, &mut rng).unwrap();
    let x = init::randn(&[4, 3, 16, 16], 1.0, &mut rng);

    net.set_backend(BackendKind::Naive);
    let logits_naive = net.forward(&x, Mode::Eval).unwrap();
    net.set_backend(BackendKind::Parallel);
    let logits_parallel = net.forward(&x, Mode::Eval).unwrap();
    close(&logits_naive, &logits_parallel, "vgg_tiny logits");
}

//! Oracle parity for the model-zoo conv dispatch shapes: the strided direct
//! 3×3 stencil, the widened direct 5×5 stencil and the depthwise per-channel
//! kernels must agree with the `Naive` reference within 1e-5 — forward,
//! backward, packed-weight and fused-epilogue entry points alike — across
//! stride/pad/batch edge geometries. The depthwise forward and fused forward,
//! the 1×1 forward, the 2×2 eval max-pool and the direct 3×3 remainder
//! channels keep the oracle's per-element arithmetic, so they must match it
//! bit for bit.

use std::sync::{Mutex, MutexGuard, PoisonError};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tbnet_tensor::ops::{apply_epilogue, conv_output_size, Epilogue, PackedConv2dWeight};
use tbnet_tensor::{init, par, Backend, BackendKind, Tensor};

/// Serializes this binary's tests around the process-wide thread count:
/// the harness runs tests on parallel threads, and one test's
/// `set_max_threads` would otherwise change the chunking another test
/// relies on.
static THREADS: Mutex<()> = Mutex::new(());

/// Holds the thread-count lock for the rest of the test.
fn lock_threads() -> MutexGuard<'static, ()> {
    THREADS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Force multi-chunk code paths even on single-core hosts (see
/// `backend_parity.rs`); the thread count holds until the returned guard
/// drops.
fn pin_threads() -> MutexGuard<'static, ()> {
    let guard = lock_threads();
    par::set_max_threads(3);
    guard
}

fn close(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.dims(), b.dims(), "{what}: shape mismatch");
    let scale = a.as_slice().iter().fold(0.0f32, |m, x| m.max(x.abs()));
    let tol = 1e-5 * (1.0 + scale);
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert!(
            (x - y).abs() <= 1e-5 * (1.0 + x.abs()) || (x - y).abs() <= tol,
            "{what}[{i}]: naive {x} vs parallel {y} (tol {tol})"
        );
    }
}

/// Bit-for-bit equality: the depthwise forward keeps the oracle's
/// per-element arithmetic, so nothing may drift, not even by one ulp.
fn bitwise(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.dims(), b.dims(), "{what}: shape mismatch");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}[{i}]: naive {x} vs parallel {y}"
        );
    }
}

fn naive() -> &'static dyn Backend {
    BackendKind::Naive.imp()
}

fn parallel() -> &'static dyn Backend {
    BackendKind::Parallel.imp()
}

/// Forward (raw + packed), fused epilogues and packed backward for one dense
/// conv geometry, parallel vs naive.
#[allow(clippy::too_many_arguments)]
fn check_dense_case(
    c: usize,
    hw: usize,
    o: usize,
    kern: usize,
    stride: usize,
    pad: usize,
    label: &str,
    rng: &mut StdRng,
) {
    assert!(
        conv_output_size(hw, kern, stride, pad).is_ok(),
        "bad case {label}"
    );
    for n in [1usize, 3] {
        let x = init::randn(&[n, c, hw, hw], 1.0, rng);
        let w = init::randn(&[o, c, kern, kern], 0.5, rng);
        let bias = init::randn(&[o], 0.1, rng);
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

        // Fused epilogues: plain ReLU, skip-add-then-ReLU, ReLU-then-merge.
        let operand = init::randn(fwd_n.dims(), 1.0, rng);
        for (epi, name) in [
            (Epilogue::Relu, "relu"),
            (Epilogue::AddRelu(&operand), "add_relu"),
            (Epilogue::ReluAdd(&operand), "relu_add"),
        ] {
            let e_n = naive()
                .conv2d_forward_fused(&x, &packed, Some(&bias), stride, pad, epi)
                .unwrap();
            let e_p = parallel()
                .conv2d_forward_fused(&x, &packed, Some(&bias), stride, pad, epi)
                .unwrap();
            close(&e_n, &e_p, &format!("{label} fused {name}"));
        }

        let g = init::randn(fwd_n.dims(), 1.0, rng);
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

/// Strided 3×3 geometries dispatch to the stride-aware direct stencil below
/// the flop ceiling and to panels above it; both must match the oracle.
#[test]
fn strided_3x3_matches_oracle() {
    let _threads = pin_threads();
    let mut rng = StdRng::seed_from_u64(31);
    // (c, hw, o, stride, label)
    let cases: &[(usize, usize, usize, usize, &str)] = &[
        (6, 10, 8, 2, "3x3 stride 2"),
        (3, 9, 4, 2, "3x3 stride 2 odd width"),
        (6, 11, 7, 2, "3x3 stride 2 remainder channels"),
        (4, 12, 5, 3, "3x3 stride 3"),
        (2, 5, 3, 2, "3x3 stride 2 tiny input"),
        (64, 12, 64, 2, "3x3 stride 2 above flop ceiling (panels)"),
    ];
    for &(c, hw, o, stride, label) in cases {
        check_dense_case(c, hw, o, 3, stride, 1, label, &mut rng);
    }
}

/// 5×5/s1/p2 geometries dispatch to the widened direct stencil below the
/// flop ceiling and to panels above it; both must match the oracle.
#[test]
fn direct_5x5_matches_oracle() {
    let _threads = pin_threads();
    let mut rng = StdRng::seed_from_u64(51);
    // (c, hw, o, label)
    let cases: &[(usize, usize, usize, &str)] = &[
        (4, 12, 6, "5x5 direct"),
        (3, 9, 5, "5x5 direct odd width"),
        (6, 10, 7, "5x5 direct remainder channels"),
        (2, 5, 3, "5x5 input == kernel"),
        (1, 4, 2, "5x5 input smaller than kernel (pad carries)"),
        (48, 20, 48, "5x5 above flop ceiling (panels)"),
    ];
    for &(c, hw, o, label) in cases {
        check_dense_case(c, hw, o, 5, 1, 2, label, &mut rng);
    }
}

/// Depthwise forward/backward/fused parity across kernel/stride/pad edges,
/// including the specialized 3×3 and 5×5 per-plane stencils and the generic
/// fallback taps.
#[test]
fn depthwise_matches_oracle() {
    let _threads = pin_threads();
    let mut rng = StdRng::seed_from_u64(71);
    // (c, hw, kern, stride, pad, label)
    let cases: &[(usize, usize, usize, usize, usize, &str)] = &[
        (8, 10, 3, 1, 1, "dw 3x3"),
        (8, 10, 3, 2, 1, "dw 3x3 stride 2"),
        (5, 9, 3, 1, 0, "dw 3x3 unpadded (generic taps)"),
        (6, 12, 5, 1, 2, "dw 5x5"),
        (4, 11, 5, 2, 2, "dw 5x5 stride 2 (generic taps)"),
        (3, 8, 4, 2, 1, "dw 4x4 stride 2 (generic taps)"),
        (2, 6, 1, 1, 0, "dw 1x1"),
        (16, 32, 3, 1, 1, "dw 3x3 multi-chunk scale"),
    ];
    for &(c, hw, kern, stride, pad, label) in cases {
        if conv_output_size(hw, kern, stride, pad).is_err() {
            panic!("bad case {label}");
        }
        for n in [1usize, 4] {
            let x = init::randn(&[n, c, hw, hw], 1.0, &mut rng);
            let w = init::randn(&[c, 1, kern, kern], 0.5, &mut rng);
            let bias = init::randn(&[c], 0.1, &mut rng);
            let packed = PackedConv2dWeight::new(&w).unwrap();

            let fwd_n = naive()
                .conv2d_depthwise_forward(&x, &packed, Some(&bias), stride, pad)
                .unwrap();
            let fwd_p = parallel()
                .conv2d_depthwise_forward(&x, &packed, Some(&bias), stride, pad)
                .unwrap();
            bitwise(&fwd_n, &fwd_p, &format!("{label} fwd"));

            // A depthwise conv is a dense conv with a block-diagonal weight;
            // pin the whole family to the dense oracle, not just to its own
            // naive twin.
            let mut dense = Tensor::zeros(&[c, c, kern, kern]);
            for ch in 0..c {
                let k2 = kern * kern;
                let taps = &w.as_slice()[ch * k2..(ch + 1) * k2];
                dense.as_mut_slice()[(ch * c + ch) * k2..(ch * c + ch) * k2 + k2]
                    .copy_from_slice(taps);
            }
            let fwd_dense = naive()
                .conv2d_forward(&x, &dense, Some(&bias), stride, pad)
                .unwrap();
            close(&fwd_dense, &fwd_p, &format!("{label} fwd vs dense oracle"));

            let operand = init::randn(fwd_n.dims(), 1.0, &mut rng);
            for (epi, name) in [
                (Epilogue::Relu, "relu"),
                (Epilogue::AddRelu(&operand), "add_relu"),
                (Epilogue::ReluAdd(&operand), "relu_add"),
            ] {
                let e_n = naive()
                    .conv2d_depthwise_forward_fused(&x, &packed, Some(&bias), stride, pad, epi)
                    .unwrap();
                let e_p = parallel()
                    .conv2d_depthwise_forward_fused(&x, &packed, Some(&bias), stride, pad, epi)
                    .unwrap();
                bitwise(&e_n, &e_p, &format!("{label} fused {name}"));
            }

            let g = init::randn(fwd_n.dims(), 1.0, &mut rng);
            let bwd_n = naive()
                .conv2d_depthwise_backward(&x, &packed, &g, stride, pad, true)
                .unwrap();
            let bwd_p = parallel()
                .conv2d_depthwise_backward(&x, &packed, &g, stride, pad, true)
                .unwrap();
            close(
                &bwd_n.grad_input,
                &bwd_p.grad_input,
                &format!("{label} grad_input"),
            );
            close(
                &bwd_n.grad_weight,
                &bwd_p.grad_weight,
                &format!("{label} grad_weight"),
            );
            close(
                bwd_n.grad_bias.as_ref().unwrap(),
                bwd_p.grad_bias.as_ref().unwrap(),
                &format!("{label} grad_bias"),
            );

            // Depthwise backward vs the dense oracle: the dense grad-weight's
            // diagonal blocks are the depthwise grad-weight, and its
            // off-diagonal blocks must vanish.
            let bwd_dense = naive()
                .conv2d_backward(&x, &dense, &g, stride, pad, true)
                .unwrap();
            close(
                &bwd_dense.grad_input,
                &bwd_p.grad_input,
                &format!("{label} grad_input vs dense oracle"),
            );
            let k2 = kern * kern;
            let gw_dense = bwd_dense.grad_weight.as_slice();
            let mut gw_diag = Vec::with_capacity(c * k2);
            for ch in 0..c {
                gw_diag.extend_from_slice(&gw_dense[(ch * c + ch) * k2..(ch * c + ch) * k2 + k2]);
            }
            let gw_diag = Tensor::from_vec(gw_diag, &[c, 1, kern, kern]).unwrap();
            close(
                &gw_diag,
                &bwd_p.grad_weight,
                &format!("{label} grad_weight vs dense diagonal"),
            );
        }
    }
}

/// The one-pass 3×3 depthwise kernel on plane shapes the square cases above
/// miss: single rows and columns, widths below, at and just past one 8-lane
/// vector, and a width whose last vector overlaps the one before it. Every
/// epilogue, bit for bit against the oracle.
#[test]
fn depthwise_one_pass_edge_planes_match_oracle() {
    let _threads = pin_threads();
    let mut rng = StdRng::seed_from_u64(72);
    for (h, w) in [
        (1, 1),
        (1, 7),
        (7, 1),
        (1, 8),
        (3, 8),
        (5, 9),
        (2, 17),
        (4, 13),
    ] {
        let x = init::randn(&[2, 3, h, w], 1.0, &mut rng);
        let wt = init::randn(&[3, 1, 3, 3], 0.5, &mut rng);
        let bias = init::randn(&[3], 0.1, &mut rng);
        let packed = PackedConv2dWeight::new(&wt).unwrap();
        let operand = init::randn(&[2, 3, h, w], 1.0, &mut rng);
        for (epi, name) in [
            (Epilogue::None, "none"),
            (Epilogue::Relu, "relu"),
            (Epilogue::AddRelu(&operand), "add_relu"),
            (Epilogue::ReluAdd(&operand), "relu_add"),
        ] {
            let e_n = naive()
                .conv2d_depthwise_forward_fused(&x, &packed, Some(&bias), 1, 1, epi)
                .unwrap();
            let e_p = parallel()
                .conv2d_depthwise_forward_fused(&x, &packed, Some(&bias), 1, 1, epi)
                .unwrap();
            bitwise(&e_n, &e_p, &format!("{h}x{w} {name}"));
        }
    }
}

/// Depthwise shape validation: a dense-shaped weight, a channel mismatch or
/// a rank error must be rejected, not silently folded.
#[test]
fn depthwise_rejects_bad_shapes() {
    let x = Tensor::zeros(&[1, 4, 6, 6]);
    for bad in [
        Tensor::zeros(&[4, 2, 3, 3]), // second dim must be 1
        Tensor::zeros(&[3, 1, 3, 3]), // channel count mismatch
        Tensor::zeros(&[4, 1, 3]),    // rank
    ] {
        let packed = match PackedConv2dWeight::new(&bad) {
            Ok(p) => p,
            Err(_) => continue, // rank error already caught at pack time
        };
        for backend in [naive(), parallel()] {
            assert!(
                backend
                    .conv2d_depthwise_forward(&x, &packed, None, 1, 1)
                    .is_err(),
                "accepted weight {:?}",
                bad.dims()
            );
            assert!(
                backend
                    .conv2d_depthwise_backward(&x, &packed, &x, 1, 1, false)
                    .is_err(),
                "backward accepted weight {:?}",
                bad.dims()
            );
        }
    }
}

/// The 1×1 forward keeps the oracle's per-element arithmetic on both of its
/// paths — the AVX2 register tile with its epilogue in registers (planes at
/// least 8 wide, inputs up to 2^15 elements per sample) and the portable
/// GEMM plus sweep (narrower planes, and larger inputs such as 91 channels
/// at 32×32) — so it matches bit for bit: every epilogue with and without
/// a bias, channel counts that leave partial row tiles, planes narrower
/// than 8 or not a multiple of 8 or 24, batch 1 and 3, stride 1 and 2, and
/// 1, 2 and 4 threads (so chunks start at channel offsets that are
/// multiples of 8).
#[test]
fn pointwise_matches_oracle_bitwise() {
    let _threads = lock_threads();
    let mut rng = StdRng::seed_from_u64(81);
    let mut case = 0usize;
    for c in [1usize, 3, 15, 24, 91] {
        for o in [1usize, 3, 4, 5, 22, 94] {
            for (h, w) in [(1, 1), (2, 3), (4, 4), (7, 9), (8, 8), (16, 16), (32, 32)] {
                // Batch and stride alternate with coprime periods, so every
                // pairing meets every channel count.
                case += 1;
                let n = if case.is_multiple_of(2) { 1 } else { 3 };
                let stride = if case.is_multiple_of(3) { 2 } else { 1 };
                let x = init::randn(&[n, c, h, w], 1.0, &mut rng);
                let wt = init::randn(&[o, c, 1, 1], 0.5, &mut rng);
                let bias = init::randn(&[o], 0.1, &mut rng);
                let packed = PackedConv2dWeight::new(&wt).unwrap();
                // The oracle's fused forward is its plain forward followed
                // by `apply_epilogue`; run the forward once per bias.
                let plain = [None, Some(&bias)].map(|b| {
                    naive()
                        .conv2d_forward_packed(&x, &packed, b, stride, 0)
                        .unwrap()
                });
                let operand = init::randn(plain[0].dims(), 1.0, &mut rng);
                let epilogues = [
                    (Epilogue::None, "none"),
                    (Epilogue::Relu, "relu"),
                    (Epilogue::AddRelu(&operand), "add_relu"),
                    (Epilogue::ReluAdd(&operand), "relu_add"),
                ];
                for threads in [1usize, 2, 4] {
                    par::set_max_threads(threads);
                    for (b, base) in [None, Some(&bias)].into_iter().zip(&plain) {
                        for (epi, name) in epilogues {
                            let mut want = base.clone();
                            apply_epilogue(&mut want, epi).unwrap();
                            let got = parallel()
                                .conv2d_forward_fused(&x, &packed, b, stride, 0, epi)
                                .unwrap();
                            bitwise(
                                &want,
                                &got,
                                &format!(
                                    "1x1 {c}->{o} {h}x{w} n{n} s{stride} t{threads} {name} bias {}",
                                    b.is_some()
                                ),
                            );
                        }
                    }
                }
            }
        }
    }
    par::reset_max_threads();
}

/// Random values with NaN, ±Inf and ±0.0 mixed in, so every ordering rule
/// of `f32::max` is exercised inside one window.
fn special_values(dims: &[usize], rng: &mut StdRng) -> Tensor {
    let mut t = init::randn(dims, 1.0, rng);
    for x in t.as_mut_slice() {
        *x = match rng.gen_range(0..8) {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            3 => 0.0,
            4 => -0.0,
            _ => *x,
        };
    }
    t
}

/// The row-pair 2×2 eval max-pool keeps the naive loop's exact `f32::max`
/// chain per output, so NaN, ±Inf and ±0.0 inputs give the same bits, at
/// odd heights and widths, on both its inline path and its chunked path
/// (inputs of 2^19 elements or more). The 3×3 window stays on the
/// per-element loop and must agree too.
#[test]
fn maxpool_eval_matches_oracle_bitwise() {
    let _threads = pin_threads();
    let mut rng = StdRng::seed_from_u64(91);
    for (dims, k) in [
        ([1usize, 3, 5, 7], 2),
        ([2, 4, 3, 2], 2),
        ([1, 22, 32, 32], 2),
        ([3, 5, 9, 11], 2),
        ([4, 64, 45, 47], 2),
        ([2, 3, 7, 8], 3),
        ([3, 64, 45, 47], 3),
    ] {
        let x = special_values(&dims, &mut rng);
        let want = naive().maxpool2d_eval(&x, k).unwrap();
        let got = parallel().maxpool2d_eval(&x, k).unwrap();
        bitwise(&want, &got, &format!("maxpool k{k} {dims:?}"));
    }
    // Windows of signed zeros only: which zero wins is decided by the
    // order of the `max` calls alone.
    let mut zeros = Tensor::zeros(&[1, 2, 6, 6]);
    for (i, x) in zeros.as_mut_slice().iter_mut().enumerate() {
        if (i * 7) % 3 == 0 {
            *x = -0.0;
        }
    }
    bitwise(
        &naive().maxpool2d_eval(&zeros, 2).unwrap(),
        &parallel().maxpool2d_eval(&zeros, 2).unwrap(),
        "maxpool signed zeros",
    );
}

/// The direct 3×3 stencil's remainder channels (the last `O % 4` of each
/// sample) run the portable stencil without FMA, so they match the oracle
/// bit for bit; the 4-channel blocks before them may use FMA and are held
/// to the usual tolerance.
#[test]
fn direct_3x3_remainder_rows_match_oracle_bitwise() {
    let _threads = pin_threads();
    let mut rng = StdRng::seed_from_u64(101);
    for o in [1usize, 2, 3, 5, 13, 15] {
        for (c, h, w) in [(3, 32, 32), (5, 7, 9)] {
            let x = init::randn(&[2, c, h, w], 1.0, &mut rng);
            let wt = init::randn(&[o, c, 3, 3], 0.5, &mut rng);
            let bias = init::randn(&[o], 0.1, &mut rng);
            let packed = PackedConv2dWeight::new(&wt).unwrap();
            let operand = init::randn(&[2, o, h, w], 1.0, &mut rng);
            for (epi, name) in [
                (Epilogue::None, "none"),
                (Epilogue::Relu, "relu"),
                (Epilogue::ReluAdd(&operand), "relu_add"),
            ] {
                let want = naive()
                    .conv2d_forward_fused(&x, &packed, Some(&bias), 1, 1, epi)
                    .unwrap();
                let got = parallel()
                    .conv2d_forward_fused(&x, &packed, Some(&bias), 1, 1, epi)
                    .unwrap();
                let label = format!("3x3 {c}->{o} {h}x{w} {name}");
                close(&want, &got, &label);
                let plane = h * w;
                for ni in 0..2 {
                    for oi in o / 4 * 4..o {
                        let span = (ni * o + oi) * plane..(ni * o + oi + 1) * plane;
                        for (i, (a, b)) in want.as_slice()[span.clone()]
                            .iter()
                            .zip(&got.as_slice()[span])
                            .enumerate()
                        {
                            assert_eq!(
                                a.to_bits(),
                                b.to_bits(),
                                "{label} remainder channel {oi} sample {ni} [{i}]: {a} vs {b}"
                            );
                        }
                    }
                }
            }
        }
    }
}

//! Steady-state allocation guarantees of the fused convolution engine.
//!
//! Two contracts, asserted with a counting global allocator (this
//! integration test is its own binary, so the allocator hook and the
//! process-global arena counters see no other tests):
//!
//! 1. **Warmed-up conv calls allocate only their returned tensors.** After
//!    one warm-up call per geometry, a forward allocates exactly the output
//!    tensor and a backward exactly its gradients — every im2col panel,
//!    operand pack and partial accumulator comes from the thread-local
//!    arena, and the arena itself stops growing.
//! 2. **Training reaches arena steady state after one step.** A second
//!    data-parallel training step on the same batch geometry draws every
//!    scratch buffer from warm arenas: zero new arena growth (mirroring the
//!    pool-usage assertions in `tests/train_parity.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::SeedableRng;
use tbnet_core::dp_train::DataParallelTrainer;
use tbnet_data::Batch;
use tbnet_models::{vgg, ChainNet};
use tbnet_nn::optim::Sgd;
use tbnet_tensor::{arena, init, par, BackendKind, Tensor};

struct CountingAlloc;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocated_bytes() -> u64 {
    ALLOCATED.load(Ordering::Relaxed)
}

/// Per-tensor bookkeeping slack (shape vector, `Vec` rounding): generous,
/// still orders of magnitude below any scratch buffer these kernels need.
const SLACK: u64 = 1024;

fn tensor_bytes(t: &Tensor) -> u64 {
    (t.numel() * std::mem::size_of::<f32>()) as u64
}

/// Asserts that one warmed-up forward + backward pair on `stride`/`pad`
/// geometry allocates only its returned tensors and grows no arena.
fn assert_steady_state(x: &Tensor, w: &Tensor, stride: usize, pad: usize, label: &str) {
    let parallel = BackendKind::Parallel.imp();
    let packed = tbnet_tensor::ops::PackedConv2dWeight::new(w).unwrap();
    // Warm up: arenas grow to this geometry's working set.
    let out = parallel
        .conv2d_forward_packed(x, &packed, None, stride, pad)
        .unwrap();
    let grad = init::randn(out.dims(), 1.0, &mut StdRng::seed_from_u64(7));
    let _ = parallel
        .conv2d_backward_packed(x, &packed, &grad, stride, pad, false)
        .unwrap();

    let arena_before = arena::reserved_elems();
    let a0 = allocated_bytes();
    let out2 = parallel
        .conv2d_forward_packed(x, &packed, None, stride, pad)
        .unwrap();
    let fwd_delta = allocated_bytes() - a0;
    let fwd_budget = tensor_bytes(&out2) + SLACK;
    assert!(
        fwd_delta <= fwd_budget,
        "{label}: second forward allocated {fwd_delta} B, budget {fwd_budget} B \
         (output only) — scratch leaked to the heap"
    );

    let a0 = allocated_bytes();
    let grads = parallel
        .conv2d_backward_packed(x, &packed, &grad, stride, pad, false)
        .unwrap();
    let bwd_delta = allocated_bytes() - a0;
    let bwd_budget = tensor_bytes(&grads.grad_input) + tensor_bytes(&grads.grad_weight) + 2 * SLACK;
    assert!(
        bwd_delta <= bwd_budget,
        "{label}: second backward allocated {bwd_delta} B, budget {bwd_budget} B \
         (gradients only) — scratch leaked to the heap"
    );

    assert_eq!(
        arena::reserved_elems(),
        arena_before,
        "{label}: second-step conv calls must not grow the scratch arena"
    );
}

/// Depthwise twin of [`assert_steady_state`]: one warmed-up depthwise
/// forward + backward pair allocates only its returned tensors and grows no
/// arena.
fn assert_depthwise_steady_state(x: &Tensor, w: &Tensor, stride: usize, pad: usize, label: &str) {
    let parallel = BackendKind::Parallel.imp();
    let packed = tbnet_tensor::ops::PackedConv2dWeight::new(w).unwrap();
    let out = parallel
        .conv2d_depthwise_forward(x, &packed, None, stride, pad)
        .unwrap();
    let grad = init::randn(out.dims(), 1.0, &mut StdRng::seed_from_u64(7));
    let _ = parallel
        .conv2d_depthwise_backward(x, &packed, &grad, stride, pad, false)
        .unwrap();

    let arena_before = arena::reserved_elems();
    let a0 = allocated_bytes();
    let out2 = parallel
        .conv2d_depthwise_forward(x, &packed, None, stride, pad)
        .unwrap();
    let fwd_delta = allocated_bytes() - a0;
    let fwd_budget = tensor_bytes(&out2) + SLACK;
    assert!(
        fwd_delta <= fwd_budget,
        "{label}: second forward allocated {fwd_delta} B, budget {fwd_budget} B \
         (output only) — scratch leaked to the heap"
    );

    let a0 = allocated_bytes();
    let grads = parallel
        .conv2d_depthwise_backward(x, &packed, &grad, stride, pad, false)
        .unwrap();
    let bwd_delta = allocated_bytes() - a0;
    let bwd_budget = tensor_bytes(&grads.grad_input) + tensor_bytes(&grads.grad_weight) + 2 * SLACK;
    assert!(
        bwd_delta <= bwd_budget,
        "{label}: second backward allocated {bwd_delta} B, budget {bwd_budget} B \
         (gradients only) — scratch leaked to the heap"
    );

    assert_eq!(
        arena::reserved_elems(),
        arena_before,
        "{label}: second-step depthwise calls must not grow the scratch arena"
    );
}

fn synthetic_batch(n: usize, c: usize, hw: usize, classes: usize, seed: u64) -> Batch {
    let mut rng = StdRng::seed_from_u64(seed);
    Batch {
        images: init::randn(&[n, c, hw, hw], 1.0, &mut rng),
        labels: (0..n).map(|i| i % classes).collect(),
    }
}

/// One test function so the phases run sequentially: the allocator counter
/// and the arena counters are process-global.
#[test]
fn fused_conv_engine_reaches_allocation_steady_state() {
    // Phase 1: single-thread, per-dispatch-path output-only allocation.
    par::set_max_threads(1);
    let mut rng = StdRng::seed_from_u64(11);
    let x = init::randn(&[2, 8, 12, 12], 1.0, &mut rng);

    let w3 = init::randn(&[8, 8, 3, 3], 0.5, &mut rng);
    assert_steady_state(&x, &w3, 1, 1, "direct 3x3");
    assert_steady_state(&x, &w3, 2, 1, "direct 3x3 strided");
    assert_steady_state(&x, &w3, 1, 0, "panel fallback (3x3 unpadded)");
    let w5 = init::randn(&[8, 8, 5, 5], 0.5, &mut rng);
    assert_steady_state(&x, &w5, 1, 2, "direct 5x5");
    assert_steady_state(&x, &w5, 2, 2, "panel fallback (5x5 stride 2)");
    let w1 = init::randn(&[8, 8, 1, 1], 0.5, &mut rng);
    assert_steady_state(&x, &w1, 1, 0, "1x1 matmul");
    assert_steady_state(&x, &w1, 2, 0, "1x1 strided matmul");

    // Depthwise family: per-channel stencils (3x3, strided 3x3, 5x5) and the
    // generic-tap fallback, forward and backward.
    let dw3 = init::randn(&[8, 1, 3, 3], 0.5, &mut rng);
    assert_depthwise_steady_state(&x, &dw3, 1, 1, "depthwise 3x3");
    assert_depthwise_steady_state(&x, &dw3, 2, 1, "depthwise 3x3 strided");
    assert_depthwise_steady_state(&x, &dw3, 1, 0, "depthwise 3x3 generic taps");
    let dw5 = init::randn(&[8, 1, 5, 5], 0.5, &mut rng);
    assert_depthwise_steady_state(&x, &dw5, 1, 2, "depthwise 5x5");

    // A larger geometry that crosses the pool-dispatch work floors still
    // keeps the arena flat (threads = 1 ⇒ the chunks run inline).
    let xl = init::randn(&[4, 16, 24, 24], 1.0, &mut rng);
    let wl = init::randn(&[24, 16, 3, 3], 0.3, &mut rng);
    assert_steady_state(&xl, &wl, 1, 1, "pool-scale 3x3");

    // Phase 2a: single-threaded training — every task runs inline on this
    // thread, so one step warms the arena completely and the second step
    // must grow it by exactly zero.
    let spec = vgg::vgg_from_stages("alloc-probe", &[(8, 1), (8, 1)], 4, 3, (8, 8));
    let mut net = ChainNet::from_spec(&spec, &mut StdRng::seed_from_u64(5)).unwrap();
    net.set_backend(BackendKind::Parallel);
    let sgd = Sgd::new(0.05, 0.9, 5e-4).unwrap();
    let batch = synthetic_batch(16, 3, 8, 4, 23);

    let mut seq_trainer = DataParallelTrainer::new(&net, 4).unwrap();
    seq_trainer.step(&batch, &sgd).unwrap();
    let arena_after_first = arena::reserved_elems();
    seq_trainer.step(&batch, &sgd).unwrap();
    assert_eq!(
        arena::reserved_elems(),
        arena_after_first,
        "second training step must draw all scratch from warm arenas (zero growth)"
    );

    // Phase 2b: with the pool engaged, task→worker assignment varies from
    // step to step, so each worker's arena warms when it first touches a
    // task shape — the step at which the *last* worker finishes warming is
    // scheduling-dependent. What the engine does guarantee is that growth
    // converges to zero: a scratch leak would grow the arena on *every*
    // step and could never produce consecutive flat steps.
    par::set_max_threads(4);
    let mut trainer = DataParallelTrainer::new(&net, 4).unwrap();
    let mut flat_streak = 0;
    for step in 0..30 {
        let before = arena::reserved_elems();
        trainer.step(&batch, &sgd).unwrap();
        if arena::reserved_elems() == before {
            flat_streak += 1;
            if flat_streak >= 3 {
                break;
            }
        } else {
            flat_streak = 0;
        }
        assert!(
            step < 29,
            "pooled training never reached arena steady state in 30 steps \
             (scratch is leaking to fresh buffers every step)"
        );
    }
    par::reset_max_threads();

    // Phase 3: the inference fast path. Fused-epilogue forwards, index-free
    // eval pooling and the int8 kernel must likewise allocate only their
    // outputs once warm — steady-state inference scratch lives in the
    // arenas (f32 panels) and the byte arena (u8/i8 panels).
    par::set_max_threads(1);
    inference_steady_state();
    par::reset_max_threads();
}

/// Asserts output-only allocation for the fused f32 epilogue forward (dense
/// and depthwise), the index-free eval max-pool, and the int8 quantized
/// forward of every weight layout.
fn inference_steady_state() {
    use tbnet_tensor::ops::{conv2d_forward_q8, ActQuant, Epilogue, QuantConv2dWeight};

    let parallel = BackendKind::Parallel.imp();
    let mut rng = StdRng::seed_from_u64(31);
    let x = init::randn(&[2, 8, 12, 12], 1.0, &mut rng);
    let w3 = init::randn(&[8, 8, 3, 3], 0.5, &mut rng);
    let packed = tbnet_tensor::ops::PackedConv2dWeight::new(&w3).unwrap();
    let bias = init::randn(&[8], 0.1, &mut rng);
    let merge = {
        let probe = parallel
            .conv2d_forward_fused(&x, &packed, Some(&bias), 1, 1, Epilogue::Relu)
            .unwrap();
        init::randn(probe.dims(), 1.0, &mut rng)
    };

    // Fused forward with every epilogue variant: warm once, then assert the
    // second call allocates only its output tensor.
    for (label, epi) in [
        ("fused relu", Epilogue::Relu),
        ("fused add-relu", Epilogue::AddRelu(&merge)),
        ("fused relu-add", Epilogue::ReluAdd(&merge)),
    ] {
        let _ = parallel
            .conv2d_forward_fused(&x, &packed, Some(&bias), 1, 1, epi)
            .unwrap();
        let arena_before = arena::reserved_elems();
        let a0 = allocated_bytes();
        let out = parallel
            .conv2d_forward_fused(&x, &packed, Some(&bias), 1, 1, epi)
            .unwrap();
        let delta = allocated_bytes() - a0;
        let budget = tensor_bytes(&out) + SLACK;
        assert!(
            delta <= budget,
            "{label}: warmed fused forward allocated {delta} B, budget {budget} B"
        );
        assert_eq!(arena::reserved_elems(), arena_before, "{label}: arena grew");
    }

    // The 1×1 forward under every epilogue, with the AVX2 register tile
    // (planes at least 8 wide, stride 1 and the strided gather) and the
    // portable GEMM (a narrower plane): the strided gather is arena
    // scratch, so each warmed call allocates only its output.
    let w1 = init::randn(&[8, 8, 1, 1], 0.5, &mut rng);
    let packed_1x1 = tbnet_tensor::ops::PackedConv2dWeight::new(&w1).unwrap();
    for (xs, stride) in [
        (x.clone(), 1),
        (x.clone(), 2),
        (init::randn(&[2, 8, 2, 3], 1.0, &mut rng), 1),
    ] {
        let probe = parallel
            .conv2d_forward_fused(&xs, &packed_1x1, Some(&bias), stride, 0, Epilogue::None)
            .unwrap();
        let merge_1x1 = init::randn(probe.dims(), 1.0, &mut rng);
        for (name, epi) in [
            ("none", Epilogue::None),
            ("relu", Epilogue::Relu),
            ("add-relu", Epilogue::AddRelu(&merge_1x1)),
            ("relu-add", Epilogue::ReluAdd(&merge_1x1)),
        ] {
            let label = format!("1x1 {:?} stride {stride} {name}", xs.dims());
            let _ = parallel
                .conv2d_forward_fused(&xs, &packed_1x1, Some(&bias), stride, 0, epi)
                .unwrap();
            let arena_before = arena::reserved_elems();
            let a0 = allocated_bytes();
            let out = parallel
                .conv2d_forward_fused(&xs, &packed_1x1, Some(&bias), stride, 0, epi)
                .unwrap();
            let delta = allocated_bytes() - a0;
            let budget = tensor_bytes(&out) + SLACK;
            assert!(
                delta <= budget,
                "{label}: warmed forward allocated {delta} B, budget {budget} B"
            );
            assert_eq!(arena::reserved_elems(), arena_before, "{label}: arena grew");
        }
    }

    // Index-free eval pooling: no winners map, only the pooled output, for
    // the row-pair 2×2 kernel (one inline chunk: this test runs at one
    // thread) on an even and an odd plane, and for the 3×3 per-element
    // loop.
    let odd = init::randn(&[2, 8, 13, 11], 1.0, &mut rng);
    for (label, input, k) in [
        ("maxpool2d_eval 2x2", &x, 2),
        ("maxpool2d_eval 2x2 odd plane", &odd, 2),
        ("maxpool2d_eval 3x3", &odd, 3),
    ] {
        let _ = parallel.maxpool2d_eval(input, k).unwrap();
        let a0 = allocated_bytes();
        let pooled = parallel.maxpool2d_eval(input, k).unwrap();
        let delta = allocated_bytes() - a0;
        let budget = tensor_bytes(&pooled) + SLACK;
        assert!(
            delta <= budget,
            "{label}: warmed call allocated {delta} B, budget {budget} B \
             (an index map would roughly double the output bytes)"
        );
    }

    // The one-pass depthwise forward with every fused epilogue: its
    // zero-bordered plane copy is arena scratch. The planes are large
    // enough that a heap copy of even one of them would overrun `SLACK`.
    let xd = init::randn(&[2, 8, 24, 24], 1.0, &mut rng);
    let merge_d = init::randn(xd.dims(), 1.0, &mut rng);
    let dw = init::randn(&[8, 1, 3, 3], 0.5, &mut rng);
    let dw_packed = tbnet_tensor::ops::PackedConv2dWeight::new(&dw).unwrap();
    for (label, epi) in [
        ("depthwise relu", Epilogue::Relu),
        ("depthwise add-relu", Epilogue::AddRelu(&merge_d)),
        ("depthwise relu-add", Epilogue::ReluAdd(&merge_d)),
    ] {
        let _ = parallel
            .conv2d_depthwise_forward_fused(&xd, &dw_packed, Some(&bias), 1, 1, epi)
            .unwrap();
        let arena_before = arena::reserved_elems();
        let a0 = allocated_bytes();
        let out = parallel
            .conv2d_depthwise_forward_fused(&xd, &dw_packed, Some(&bias), 1, 1, epi)
            .unwrap();
        let delta = allocated_bytes() - a0;
        let budget = tensor_bytes(&out) + SLACK;
        assert!(
            delta <= budget,
            "{label}: warmed forward allocated {delta} B, budget {budget} B"
        );
        assert_eq!(arena::reserved_elems(), arena_before, "{label}: arena grew");
    }

    // Int8 forward, one kernel per weight layout (tap quads, channel quads,
    // depthwise): u8 images, planes and panels all come from the byte arena
    // once warm.
    let act = ActQuant::from_tensor(&xd);
    for (label, qw, pad) in [
        ("int8 3x3", QuantConv2dWeight::quantize(&w3).unwrap(), 1),
        ("int8 1x1", QuantConv2dWeight::quantize(&w1).unwrap(), 0),
        (
            "int8 depthwise",
            QuantConv2dWeight::quantize_depthwise(&dw).unwrap(),
            1,
        ),
    ] {
        let _ = conv2d_forward_q8(&xd, &qw, act, Some(&bias), 1, pad, true).unwrap();
        let arena_before = arena::reserved_elems();
        let a0 = allocated_bytes();
        let qout = conv2d_forward_q8(&xd, &qw, act, Some(&bias), 1, pad, true).unwrap();
        let delta = allocated_bytes() - a0;
        let budget = tensor_bytes(&qout) + SLACK;
        assert!(
            delta <= budget,
            "{label}: warmed call allocated {delta} B, budget {budget} B"
        );
        assert_eq!(
            arena::reserved_elems(),
            arena_before,
            "{label}: second call must not grow the f32 arena"
        );
    }
}

//! Backend comparison report: times the Naive and Parallel backends on
//! paper-scale kernel shapes and writes `BENCH_backend.json` at the repo
//! root (or the path given as the first argument).
//!
//! Besides min-of-N wall clock, every kernel row records **bytes allocated
//! per call** on each backend (via a counting global allocator local to
//! this binary), so memory-traffic wins show up even on a single-core host
//! where thread chunking cannot: the fused conv engine's steady-state calls
//! should allocate nothing beyond their returned tensors.
//!
//! Run with `cargo run --release -p tbnet-bench --bin backend`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rand::SeedableRng;
use serde::Serialize;
use tbnet_tensor::ops::PackedConv2dWeight;
use tbnet_tensor::{init, par, BackendKind, Tensor};

/// Wraps the system allocator with a monotonic allocated-bytes counter
/// (growth only — frees are not subtracted, so a delta around a call is
/// exactly the bytes that call requested).
struct CountingAlloc;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation verbatim to `System`; the counter is a
// relaxed atomic with no other side effects.
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

#[derive(Debug, Clone, Serialize)]
struct KernelResult {
    kernel: String,
    shape: String,
    naive_ms: f64,
    parallel_ms: f64,
    speedup: f64,
    /// Heap bytes one warmed-up naive call allocates.
    naive_alloc_bytes: u64,
    /// Heap bytes one warmed-up parallel call allocates (the fused conv
    /// engine's steady-state calls allocate only their returned tensors).
    parallel_alloc_bytes: u64,
}

#[derive(Debug, Serialize)]
struct BackendReport {
    report: String,
    threads: usize,
    default_backend: String,
    samples_per_measurement: usize,
    note: String,
    results: Vec<KernelResult>,
}

/// Minimum wall-clock of `reps` runs — robust against scheduler noise.
fn time_min<F: FnMut() -> Tensor>(mut f: F, reps: usize) -> (f64, u64) {
    f(); // warmup (pools, arenas, packs)
    let a0 = allocated_bytes();
    f();
    let alloc_per_call = allocated_bytes() - a0;
    let mut best = f64::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (best * 1e3, alloc_per_call)
}

fn compare<F, G>(kernel: &str, shape: &str, reps: usize, naive: F, parallel: G) -> KernelResult
where
    F: FnMut() -> Tensor,
    G: FnMut() -> Tensor,
{
    let (naive_ms, naive_alloc_bytes) = time_min(naive, reps);
    let (parallel_ms, parallel_alloc_bytes) = time_min(parallel, reps);
    let r = KernelResult {
        kernel: kernel.to_string(),
        shape: shape.to_string(),
        naive_ms,
        parallel_ms,
        speedup: naive_ms / parallel_ms,
        naive_alloc_bytes,
        parallel_alloc_bytes,
    };
    println!(
        "{kernel:<16} {shape:<28} naive {naive_ms:8.2} ms | parallel {parallel_ms:8.2} ms | \
         {:.2}x | alloc {naive_alloc_bytes:>10} -> {parallel_alloc_bytes:>8} B",
        r.speedup
    );
    r
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_backend.json".to_string());
    let reps = 7;
    let naive = BackendKind::Naive.imp();
    let parallel = BackendKind::Parallel.imp();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let mut results = Vec::new();

    // The acceptance shape: a 256x256x256 GEMM.
    let a = init::randn(&[256, 256], 1.0, &mut rng);
    let b = init::randn(&[256, 256], 1.0, &mut rng);
    results.push(compare(
        "matmul",
        "256x256 @ 256x256",
        reps,
        || naive.matmul(&a, &b).unwrap(),
        || parallel.matmul(&a, &b).unwrap(),
    ));
    results.push(compare(
        "matmul_t_a",
        "256x256^T @ 256x256",
        reps,
        || naive.matmul_transpose_a(&a, &b).unwrap(),
        || parallel.matmul_transpose_a(&a, &b).unwrap(),
    ));
    results.push(compare(
        "matmul_t_b",
        "256x256 @ 256x256^T",
        reps,
        || naive.matmul_transpose_b(&a, &b).unwrap(),
        || parallel.matmul_transpose_b(&a, &b).unwrap(),
    ));

    // ResNet-scale convolution: mid-network layer geometry at CIFAR scale.
    // The Parallel side runs the layers' steady-state path — weights packed
    // once per weight-update epoch, panel-wise fused kernels.
    let x = init::randn(&[8, 64, 32, 32], 1.0, &mut rng);
    let w = init::randn(&[64, 64, 3, 3], 0.1, &mut rng);
    let packed = PackedConv2dWeight::new(&w).unwrap();
    results.push(compare(
        "conv2d_forward",
        "8x64x32x32 * 64x64x3x3",
        reps,
        || naive.conv2d_forward(&x, &w, None, 1, 1).unwrap(),
        || {
            parallel
                .conv2d_forward_packed(&x, &packed, None, 1, 1)
                .unwrap()
        },
    ));
    let grad = init::randn(&[8, 64, 32, 32], 1.0, &mut rng);
    results.push(compare(
        "conv2d_backward",
        "8x64x32x32 * 64x64x3x3",
        reps,
        || {
            naive
                .conv2d_backward(&x, &w, &grad, 1, 1, false)
                .unwrap()
                .grad_input
        },
        || {
            parallel
                .conv2d_backward_packed(&x, &packed, &grad, 1, 1, false)
                .unwrap()
                .grad_input
        },
    ));

    // The 1x1 dispatch path (no unfold), one row on each side of the
    // per-sample input size at which the register tile hands over to the
    // row GEMM: 64 channels at 32x32 (65,536 elements) take the row GEMM,
    // 24 channels (24,576, the largest deployed pointwise input) the tile.
    let w1 = init::randn(&[64, 64, 1, 1], 0.1, &mut rng);
    let packed1 = PackedConv2dWeight::new(&w1).unwrap();
    results.push(compare(
        "conv2d_fwd_1x1",
        "8x64x32x32 * 64x64x1x1",
        reps,
        || naive.conv2d_forward(&x, &w1, None, 1, 0).unwrap(),
        || {
            parallel
                .conv2d_forward_packed(&x, &packed1, None, 1, 0)
                .unwrap()
        },
    ));
    let x24 = init::randn(&[8, 24, 32, 32], 1.0, &mut rng);
    let w24 = init::randn(&[24, 24, 1, 1], 0.1, &mut rng);
    let packed24 = PackedConv2dWeight::new(&w24).unwrap();
    results.push(compare(
        "conv2d_fwd_1x1",
        "8x24x32x32 * 24x24x1x1",
        reps,
        || naive.conv2d_forward(&x24, &w24, None, 1, 0).unwrap(),
        || {
            parallel
                .conv2d_forward_packed(&x24, &packed24, None, 1, 0)
                .unwrap()
        },
    ));

    // Elementwise / reduction shapes from BatchNorm-heavy training.
    let big = init::randn(&[32, 64, 32, 32], 1.0, &mut rng);
    let big2 = init::randn(&[32, 64, 32, 32], 1.0, &mut rng);
    results.push(compare(
        "add",
        "32x64x32x32",
        reps,
        || naive.add(&big, &big2).unwrap(),
        || parallel.add(&big, &big2).unwrap(),
    ));
    results.push(compare(
        "channel_mean_var",
        "32x64x32x32",
        reps,
        || naive.channel_mean_var(&big).unwrap().0,
        || parallel.channel_mean_var(&big).unwrap().0,
    ));
    results.push(compare(
        "softmax_rows",
        "4096x256",
        reps,
        || naive.softmax_rows(&Tensor::ones(&[4096, 256])).unwrap(),
        || parallel.softmax_rows(&Tensor::ones(&[4096, 256])).unwrap(),
    ));

    let report = BackendReport {
        report: "backend-comparison".to_string(),
        threads: par::max_threads(),
        default_backend: tbnet_tensor::backend::global_kind().to_string(),
        samples_per_measurement: reps,
        note: "min-of-N wall clock per kernel plus bytes allocated by one \
               warmed-up call; Parallel gains come from register-blocked \
               kernels with runtime AVX2 dispatch, the fused zero-allocation \
               conv engine (packed weights, arena-panel im2col, 1x1/3x3 \
               direct paths) and persistent-pool chunking, so speedups scale \
               further with available cores (threads=1 shows the single-core \
               kernel improvement only)"
            .to_string(),
        results,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, json + "\n").expect("write BENCH_backend.json");
    println!("wrote {out_path}");
}

//! Deployment planning against the simulated Raspberry-Pi-3/OP-TEE substrate:
//! latency (paper Table 3), secure memory (paper Fig. 3), a world-switch-cost
//! sensitivity sweep, and a *functional* split inference over the
//! type-enforced one-way REE→TEE channel.
//!
//! ```sh
//! cargo run --release --example deployment_report
//! ```

use tbnet_core::deploy::{run_split_inference, DeploymentPlan};
use tbnet_core::pipeline::{run_pipeline, PipelineConfig};
use tbnet_data::{DatasetKind, SyntheticCifar};
use tbnet_models::vgg;
use tbnet_tee::{CostModel, SecureWorld};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = SyntheticCifar::generate(
        DatasetKind::Cifar10Like
            .config()
            .with_train_per_class(40)
            .with_test_per_class(15),
    );
    let spec = vgg::vgg_tiny(data.train().classes(), 3, (16, 16));
    println!("building a finalized TBNet deployment…");
    let mut artifacts = run_pipeline(&spec, &data, &PipelineConfig::smoke())?;
    let plan = DeploymentPlan::new(&artifacts.model, artifacts.victim.spec())?;

    // --- Latency (Table 3 shape). ---
    let cost = CostModel::raspberry_pi3();
    let lat = plan.latency(&cost)?;
    println!("\nlatency (simulated Pi 3 + OP-TEE):");
    println!(
        "  baseline (victim fully in TEE): {:.3} ms",
        lat.baseline.total_s * 1e3
    );
    println!(
        "  TBNet (M_R in REE ∥ M_T in TEE): {:.3} ms",
        lat.tbnet.total_s * 1e3
    );
    println!(
        "  reduction: {:.2}x  ({} world switches)",
        lat.reduction_factor(),
        lat.tbnet.switches
    );

    // --- Secure memory (Fig. 3 shape). ---
    let mem = plan.memory()?;
    println!("\nsecure memory:");
    println!(
        "  baseline: {:.1} KiB (weights {:.1} + activations {:.1})",
        mem.baseline.total() as f64 / 1024.0,
        mem.baseline.weight_bytes as f64 / 1024.0,
        mem.baseline.activation_bytes as f64 / 1024.0
    );
    println!(
        "  TBNet   : {:.1} KiB (weights {:.1} + activations {:.1} + merge buffer {:.1})",
        mem.tbnet.total() as f64 / 1024.0,
        mem.tbnet.weight_bytes as f64 / 1024.0,
        mem.tbnet.activation_bytes as f64 / 1024.0,
        mem.tbnet.merge_buffer_bytes as f64 / 1024.0
    );
    println!("  reduction: {:.2}x", mem.reduction_factor());

    // --- World-switch-cost sensitivity (ablation 4 of `bin/ablations`). ---
    println!("\nworld-switch cost sensitivity (TBNet total latency):");
    for switch_us in [10.0, 60.0, 200.0, 1000.0] {
        let mut c = CostModel::raspberry_pi3();
        c.world_switch_s = switch_us * 1e-6;
        let l = plan.latency(&c)?;
        println!(
            "  {:>6.0} µs/switch → {:.3} ms ({:.2}x vs baseline)",
            switch_us,
            l.tbnet.total_s * 1e3,
            l.baseline.total_s / l.tbnet.total_s
        );
    }

    // --- Budget check: load M_T into a 16 MiB secure world. ---
    let mut world = SecureWorld::from_cost_model(&cost);
    let used = plan.load_into_secure_world(&mut world)?;
    println!(
        "\nsecure world after loading M_T: {used} bytes used of {}",
        cost.secure_memory_budget
    );

    // --- Functional split inference over the one-way channel. ---
    let batch = data.test().gather(&[0, 1, 2, 3]);
    let split = run_split_inference(&mut artifacts.model, &batch.images)?;
    println!(
        "\nfunctional split inference: {} payloads, {} bytes crossed REE→TEE (one-way by type)",
        split.channel.messages, split.channel.bytes
    );
    let t = &split.timings;
    println!(
        "  measured stages: total {:.3} ms (ree {:.3} | transfer {:.3} | tee {:.3} | merge {:.3}) \
         — same shape as the simulator's LatencyReport above",
        t.total_ms, t.ree_ms, t.transfer_ms, t.tee_ms, t.merge_ms
    );
    let monolithic = artifacts.model.predict(&batch.images)?;
    let max_diff = split
        .logits
        .as_slice()
        .iter()
        .zip(monolithic.as_slice())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    println!("  max |split − monolithic| logit difference: {max_diff:.2e}");

    // --- Inference fast path: fused f32 and the int8 REE branch. ---
    let eval = data
        .test()
        .gather(&(0..data.test().len()).collect::<Vec<_>>());
    let model = &mut artifacts.model;
    let time_best = |f: &mut dyn FnMut()| {
        f(); // warm caches, packs and arenas
        (0..5)
            .map(|_| {
                let t0 = std::time::Instant::now();
                f();
                t0.elapsed().as_secs_f64() * 1e3
            })
            .fold(f64::MAX, f64::min)
    };
    let unfused_ms = time_best(&mut || {
        model.predict(&eval.images).expect("predict");
    });
    let fused_ms = time_best(&mut || {
        model.predict_fused(&eval.images).expect("fused predict");
    });
    let int8_ms = time_best(&mut || {
        model.predict_int8(&eval.images).expect("int8 predict");
    });
    println!("\ninference fast path ({} samples):", eval.images.dim(0));
    println!("  unfused f32 (training-shaped): {unfused_ms:.3} ms");
    println!(
        "  fused f32 (BN-folded epilogues): {fused_ms:.3} ms ({:.2}x)",
        unfused_ms / fused_ms
    );
    println!(
        "  int8 M_R + f32 M_T             : {int8_ms:.3} ms ({:.2}x)",
        unfused_ms / int8_ms
    );
    Ok(())
}

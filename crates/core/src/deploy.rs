//! Deployment against the simulated TEE substrate.
//!
//! Two layers of fidelity:
//!
//! * **analytical** — [`DeploymentPlan`] prices the finalized TBNet
//!   deployment with `tbnet-tee`'s cost model: latency (Table 3) and secure
//!   memory (Fig. 3), always against the baseline of running the whole
//!   victim inside the TEE;
//! * **functional** — [`run_split_inference`] actually executes the split:
//!   `M_R` runs "in the REE" producing feature maps that cross the
//!   type-enforced one-way channel; the "TEE side" merges them into `M_T`
//!   and classifies. Its logits equal [`TwoBranchModel::predict_fused`] bit
//!   for bit and the unfused [`TwoBranchModel::predict`] within 1e-4, which
//!   the tests assert.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use tbnet_models::ModelSpec;
use tbnet_tee::channel::{one_way_bounded, ChannelStats};
use tbnet_tee::{
    simulate_baseline, simulate_two_branch, CostModel, Deployment, LatencyReport, MemoryReport,
    SecureWorld,
};
use tbnet_tensor::Tensor;

use crate::{CoreError, Result, TwoBranchModel};

/// The architectures of a finalized TBNet deployment plus the victim
/// baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeploymentPlan {
    /// The victim architecture (baseline: fully inside the TEE).
    pub victim_spec: ModelSpec,
    /// The pruned secure branch deployed in the TEE.
    pub mt_spec: ModelSpec,
    /// The rolled-back unsecured branch deployed in the REE.
    pub mr_spec: ModelSpec,
}

/// Side-by-side latency numbers (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyComparison {
    /// Whole victim inside the TEE.
    pub baseline: LatencyReport,
    /// TBNet split execution.
    pub tbnet: LatencyReport,
}

impl LatencyComparison {
    /// Baseline-over-TBNet speedup (the paper reports up to 1.22×).
    pub fn reduction_factor(&self) -> f64 {
        self.baseline.total_s / self.tbnet.total_s
    }
}

/// Side-by-side secure-memory numbers (Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryComparison {
    /// Whole victim inside the TEE.
    pub baseline: MemoryReport,
    /// Only `M_T` (plus merge buffer) inside the TEE.
    pub tbnet: MemoryReport,
}

impl MemoryComparison {
    /// Baseline-over-TBNet memory reduction (the paper reports up to 2.45×).
    pub fn reduction_factor(&self) -> f64 {
        self.baseline.total() as f64 / self.tbnet.total() as f64
    }
}

impl DeploymentPlan {
    /// Builds the plan from a finalized two-branch model and the victim's
    /// architecture.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BranchMismatch`] when the model has not been
    /// finalized (deploying a non-finalized model would leak `M_T`'s
    /// architecture through `M_R`'s).
    pub fn new(model: &TwoBranchModel, victim_spec: ModelSpec) -> Result<Self> {
        if !model.is_finalized() {
            return Err(CoreError::BranchMismatch {
                reason: "deployment requires rollback finalization (step ⑥)".into(),
            });
        }
        Ok(DeploymentPlan {
            victim_spec,
            mt_spec: model.mt().spec(),
            mr_spec: model.mr().spec(),
        })
    }

    /// Prices both deployments' inference latency (Table 3).
    ///
    /// # Errors
    ///
    /// Propagates cost-model/spec validation errors.
    pub fn latency(&self, cost: &CostModel) -> Result<LatencyComparison> {
        Ok(LatencyComparison {
            baseline: simulate_baseline(&self.victim_spec, cost)?,
            tbnet: simulate_two_branch(&self.mt_spec, &self.mr_spec, cost)?,
        })
    }

    /// Prices both deployments' secure-memory footprint (Fig. 3).
    ///
    /// # Errors
    ///
    /// Propagates spec validation errors.
    pub fn memory(&self) -> Result<MemoryComparison> {
        Ok(MemoryComparison {
            baseline: MemoryReport::for_baseline(&self.victim_spec)?,
            tbnet: MemoryReport::for_secure_branch(&self.mt_spec)?,
        })
    }

    /// Verifies the TBNet deployment fits the secure world's budget by
    /// actually loading it, and returns the bytes used.
    ///
    /// # Errors
    ///
    /// Returns [`tbnet_tee::TeeError::SecureMemoryExhausted`] (wrapped) when
    /// the secure branch does not fit.
    pub fn load_into_secure_world(&self, world: &mut SecureWorld) -> Result<usize> {
        world.load_model(&self.mt_spec, Deployment::SecureBranch)?;
        Ok(world.used())
    }
}

/// Wall-clock breakdown of a [`run_split_inference`] call, shaped like the
/// analytical [`LatencyReport`] so the simulator (Table 3) and the real
/// execution become directly comparable: `ree_ms` ↔ `ree_compute_s`,
/// `tee_ms` ↔ `tee_compute_s`, `transfer_ms` ↔ `transfer_s`,
/// `merge_ms` ↔ `merge_s` (there is no switch cost in-process).
///
/// `merge_ms` covers the TEE-side channel extraction (the step-⑥ gather);
/// the elementwise add itself rides inside `tee_ms` whenever `M_T`'s unit
/// fuses it into its conv epilogue.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SplitTimings {
    /// REE-side `M_R` unit forwards.
    pub ree_ms: f64,
    /// One-way channel sends and receives (payload clones included).
    pub transfer_ms: f64,
    /// TEE-side `M_T` unit forwards (fused merges included) and the head.
    pub tee_ms: f64,
    /// TEE-side aligned-channel extraction before each merge.
    pub merge_ms: f64,
    /// End-to-end wall clock of the split execution.
    pub total_ms: f64,
}

/// Result of a functional split inference.
#[derive(Debug, Clone)]
pub struct SplitInference {
    /// Logits produced by the TEE side.
    pub logits: Tensor,
    /// Traffic that crossed the one-way channel.
    pub channel: ChannelStats,
    /// Per-stage wall-clock breakdown.
    pub timings: SplitTimings,
}

/// Executes the finalized model as it would deploy: the REE side runs `M_R`
/// and streams feature maps through a one-way channel; the TEE side runs
/// `M_T`, extracting aligned channels and merging. Both sides run the
/// BN-folded fused inference path ([`tbnet_models::Unit::forward_inference`]);
/// `M_T` fuses each merge into its conv epilogue where its unit geometry
/// allows. The TEE side is the same merge step as
/// [`TwoBranchModel::predict_fused`], so the logits equal it bit for bit.
///
/// The data flow is exactly the paper's: nothing is ever sent TEE→REE (the
/// channel type has no such method), and the TEE performs the per-unit
/// channel extraction of step ⑥.
///
/// # Errors
///
/// Returns shape errors when `images` disagree with the model geometry and
/// [`CoreError::BranchMismatch`] if the channel underflows (impossible with
/// congruent branches).
pub fn run_split_inference(model: &mut TwoBranchModel, images: &Tensor) -> Result<SplitInference> {
    let n = model.unit_count();
    // Sized for every payload: the REE side sends all of them before the
    // TEE side receives any, so a send never blocks.
    let (tx, rx) = one_way_bounded::<Tensor>(n + 1);
    let t_start = Instant::now();
    let (mut ree_ms, mut transfer_ms) = (0.0, 0.0);

    // ---- REE side: run M_R and stream every feature map. ----
    {
        let mr = model.mr_mut();
        let mut r = images.clone();
        let t = Instant::now();
        tx.send(images.clone(), images.numel() * 4);
        transfer_ms += ms_since(t);
        for unit in mr.units_mut() {
            let t = Instant::now();
            r = unit.forward_inference(&r, None, None)?;
            ree_ms += ms_since(t);
            let t = Instant::now();
            tx.send(r.clone(), r.numel() * 4);
            transfer_ms += ms_since(t);
        }
    }

    // ---- TEE side: merge every received feature map into M_T. ----
    let mut recv = || {
        let t = Instant::now();
        let payload = rx.recv();
        transfer_ms += ms_since(t);
        payload.ok_or_else(|| CoreError::BranchMismatch {
            reason: "channel underflow: fewer payloads than M_T units".into(),
        })
    };
    let mut step = model.secure_forward(recv()?);
    for _ in 0..n {
        step.push(&recv()?)?;
    }
    let (logits, tee, merge) = step.finish()?;
    Ok(SplitInference {
        logits,
        channel: tx.stats(),
        timings: SplitTimings {
            ree_ms,
            transfer_ms,
            tee_ms: tee.as_secs_f64() * 1e3,
            merge_ms: merge.as_secs_f64() * 1e3,
            total_ms: ms_since(t_start),
        },
    })
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tbnet_data::{DatasetKind, SyntheticCifar};
    use tbnet_models::{vgg, ChainNet};

    use crate::pipeline::{run_pipeline, PipelineConfig};

    fn finalized_artifacts() -> (crate::pipeline::TbnetArtifacts, SyntheticCifar) {
        let data = SyntheticCifar::generate(
            DatasetKind::Cifar10Like
                .config()
                .with_classes(3)
                .with_train_per_class(10)
                .with_test_per_class(5)
                .with_size(8, 8)
                .with_noise_std(0.25),
        );
        let spec = vgg::vgg_from_stages("v", &[(8, 1), (8, 1)], 3, 3, (8, 8));
        let mut cfg = PipelineConfig::smoke();
        cfg.prune.drop_budget = 1.0;
        let artifacts = run_pipeline(&spec, &data, &cfg).unwrap();
        (artifacts, data)
    }

    #[test]
    fn plan_requires_finalization() {
        let mut rng = StdRng::seed_from_u64(0);
        let spec = vgg::vgg_from_stages("v", &[(4, 1)], 3, 2, (8, 8));
        let victim = ChainNet::from_spec(&spec, &mut rng).unwrap();
        let tb = TwoBranchModel::from_victim(&victim, &mut rng).unwrap();
        assert!(DeploymentPlan::new(&tb, spec).is_err());
    }

    #[test]
    fn latency_and_memory_favor_tbnet() {
        let (artifacts, _) = finalized_artifacts();
        let plan = DeploymentPlan::new(&artifacts.model, artifacts.victim.spec()).unwrap();
        let cost = CostModel::raspberry_pi3();
        let lat = plan.latency(&cost).unwrap();
        let mem = plan.memory().unwrap();
        // M_T is pruned, so its weights must use less secure memory than the
        // victim's. (Total reduction — Fig. 3 — is weight-dominated at paper
        // scale and asserted by the experiment harness; at this toy scale the
        // merge buffer can outweigh the savings.)
        assert!(
            mem.tbnet.weight_bytes < mem.baseline.weight_bytes,
            "pruned M_T weights {} ≥ victim weights {}",
            mem.tbnet.weight_bytes,
            mem.baseline.weight_bytes
        );
        assert!(lat.baseline.total_s > 0.0 && lat.tbnet.total_s > 0.0);
        assert!(lat.reduction_factor() > 0.0 && mem.reduction_factor() > 0.0);
    }

    #[test]
    fn secure_world_loading_respects_budget() {
        let (artifacts, _) = finalized_artifacts();
        let plan = DeploymentPlan::new(&artifacts.model, artifacts.victim.spec()).unwrap();
        let mut world = SecureWorld::new(64 * 1024 * 1024);
        let used = plan.load_into_secure_world(&mut world).unwrap();
        assert!(used > 0);
        let mut tiny = SecureWorld::new(16);
        assert!(plan.load_into_secure_world(&mut tiny).is_err());
    }

    #[test]
    fn split_inference_matches_monolithic_forward() {
        let (mut artifacts, data) = finalized_artifacts();
        let batch = data.test().gather(&[0, 1, 2, 3]);
        let expected = artifacts.model.predict(&batch.images).unwrap();
        let split = run_split_inference(&mut artifacts.model, &batch.images).unwrap();
        assert_eq!(split.logits.dims(), expected.dims());
        for (a, b) in split.logits.as_slice().iter().zip(expected.as_slice()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
        // One payload per unit plus the input.
        assert_eq!(
            split.channel.messages,
            artifacts.model.unit_count() as u64 + 1
        );
        assert!(split.channel.bytes > 0);
        // Per-stage wall clock: every stage ran, and the stages cannot
        // exceed the end-to-end clock.
        let t = split.timings;
        assert!(t.ree_ms > 0.0 && t.tee_ms > 0.0);
        assert!(t.transfer_ms >= 0.0 && t.merge_ms >= 0.0);
        assert!(t.ree_ms + t.transfer_ms + t.tee_ms + t.merge_ms <= t.total_ms);
    }

    #[test]
    fn fused_and_int8_predictions_track_reference() {
        let (mut artifacts, data) = finalized_artifacts();
        let batch = data.test().gather(&[0, 1, 2, 3, 4]);
        let reference = artifacts.model.predict(&batch.images).unwrap();
        let fused = artifacts.model.predict_fused(&batch.images).unwrap();
        for (a, b) in fused.as_slice().iter().zip(reference.as_slice()) {
            assert!((a - b).abs() < 1e-4, "fused {a} vs reference {b}");
        }
        let int8 = artifacts.model.predict_int8(&batch.images).unwrap();
        assert_eq!(int8.dims(), reference.dims());
        // Quantization shifts logits but must preserve the decisions on
        // this easy synthetic batch.
        let classes = reference.dim(1);
        for (qr, rr) in int8
            .as_slice()
            .chunks(classes)
            .zip(reference.as_slice().chunks(classes))
        {
            let qa = qr
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .unwrap()
                .0;
            let ra = rr
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .unwrap()
                .0;
            assert_eq!(qa, ra, "int8 top-1 diverged: {qr:?} vs {rr:?}");
        }
    }
}

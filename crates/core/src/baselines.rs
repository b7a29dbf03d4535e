//! Prior-art defense baselines and the attacks that defeat them (paper §2.3).
//!
//! The paper motivates TBNet by the weaknesses of earlier TEE deployments:
//!
//! * **full-TEE** — the whole victim inside the TEE. Secure but slow and
//!   memory-hungry (this is the paper's Table 3 / Fig. 3 baseline, priced by
//!   [`tbnet_tee::simulate_baseline`]).
//! * **layer partitioning (DarkneTZ-style)** — only the last layers run in
//!   the TEE; the first layers sit in REE memory *in plaintext*, and the
//!   boundary feature maps plus the final predictions cross the world
//!   boundary in both directions. [`LayerPartition`] models this deployment
//!   and [`substitute_model_attack`] implements §2.3's attack against it:
//!   the attacker keeps the exposed layers verbatim, observes the deployed
//!   model's predictions for inputs of their choosing, and trains substitute
//!   layers for the hidden part.
//!
//! The `baselines` benchmark binary runs this attack side by side with the
//! direct-use attack on TBNet, reproducing the paper's qualitative claim:
//! partition defenses leak enough to reconstruct the victim; TBNet does not.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use tbnet_data::ImageDataset;
use tbnet_models::{ChainNet, ModelSpec};
use tbnet_nn::{Layer, Mode};
use tbnet_tee::{simulate_partition, CostModel, LatencyReport, MemoryReport};

use crate::train::{evaluate, train_victim_with_workers, TrainConfig};
use crate::{CoreError, Result};

/// A DarkneTZ-style deployment: victim units `..split` in the REE
/// (plaintext), units `split..` plus the classifier in the TEE.
#[derive(Debug, Clone)]
pub struct LayerPartition {
    victim: ChainNet,
    split: usize,
}

impl LayerPartition {
    /// Creates a partition deployment.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when `split` is 0 (nothing
    /// protected ≠ a defense) or ≥ the unit count (that is the full-TEE
    /// baseline, not a partition).
    pub fn new(victim: ChainNet, split: usize) -> Result<Self> {
        let n = victim.units().len();
        if split == 0 || split >= n {
            return Err(CoreError::InvalidConfig {
                field: "split",
                reason: format!("must be in 1..{n} (got {split})"),
            });
        }
        Ok(LayerPartition { victim, split })
    }

    /// The partition point: units `..split` are exposed.
    pub fn split(&self) -> usize {
        self.split
    }

    /// The deployed model (functionally identical to the victim — layer
    /// partitioning does not change the computation).
    pub fn victim(&self) -> &ChainNet {
        &self.victim
    }

    /// Test accuracy of the deployment (== the victim's).
    ///
    /// # Errors
    ///
    /// Returns shape errors when the dataset disagrees with the model.
    pub fn accuracy(&mut self, test: &ImageDataset) -> Result<f32> {
        evaluate(&mut self.victim, test)
    }

    /// The architecture of the TEE-resident tail.
    ///
    /// # Errors
    ///
    /// Propagates spec validation errors.
    pub fn tee_spec(&self) -> Result<ModelSpec> {
        Ok(self.victim.spec().tail(self.split)?)
    }

    /// Secure-memory footprint of the TEE tail.
    ///
    /// # Errors
    ///
    /// Propagates spec validation errors.
    pub fn memory(&self) -> Result<MemoryReport> {
        Ok(MemoryReport::for_baseline(&self.tee_spec()?)?)
    }

    /// Latency of the partition deployment under a cost model.
    ///
    /// # Errors
    ///
    /// Propagates cost-model/spec validation errors.
    pub fn latency(&self, cost: &CostModel) -> Result<LatencyReport> {
        Ok(simulate_partition(&self.victim.spec(), self.split, cost)?)
    }

    /// What the attacker reads from REE memory: the exposed leading units,
    /// verbatim, including well-trained weights (§2.3's core criticism).
    pub fn exposed_units(&self) -> Vec<&tbnet_models::Unit> {
        self.victim.units().iter().take(self.split).collect()
    }
}

/// Result of the substitute-model attack.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SubstituteAttackOutcome {
    /// Fraction of training inputs the attacker had.
    pub data_fraction: f64,
    /// How many of those inputs were used.
    pub samples_used: usize,
    /// Test accuracy of the attacker's reconstructed model.
    pub accuracy: f32,
}

/// §2.3's attack on layer partitioning: keep the exposed REE layers, query
/// the deployed model for labels on attacker-held inputs, and train fresh
/// substitute layers for the TEE part.
///
/// The attacker needs **no ground-truth labels** — the deployed model's own
/// predictions (returned to the REE after every inference) are the training
/// signal, which is precisely the leakage TBNet's one-way design removes.
///
/// # Errors
///
/// Returns configuration or shape errors.
pub fn substitute_model_attack(
    partition: &LayerPartition,
    inputs: &ImageDataset,
    test: &ImageDataset,
    data_fraction: f64,
    cfg: &TrainConfig,
) -> Result<SubstituteAttackOutcome> {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x0dab_b1e5);
    let subset = inputs.stratified_fraction(data_fraction, &mut rng);
    let samples_used = subset.len();

    // Query phase: the deployed model labels the attacker's inputs.
    let mut oracle = partition.victim.clone();
    let mut pseudo_labels = Vec::with_capacity(subset.len());
    let chunk = 64usize;
    let mut start = 0;
    while start < subset.len() {
        let end = (start + chunk).min(subset.len());
        let idx: Vec<usize> = (start..end).collect();
        let batch = subset.gather(&idx);
        let logits = oracle.forward(&batch.images, Mode::Eval)?;
        let (n, c) = (logits.dim(0), logits.dim(1));
        for ni in 0..n {
            let row = &logits.as_slice()[ni * c..(ni + 1) * c];
            let mut best = 0;
            for (j, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = j;
                }
            }
            pseudo_labels.push(best);
        }
        start = end;
    }
    let query_set = ImageDataset::new(subset.images().clone(), pseudo_labels, inputs.classes())?;

    // Reconstruction phase: exposed layers verbatim, fresh tail + head.
    let mut substitute = partition.victim.clone();
    let mut init_rng = StdRng::seed_from_u64(cfg.seed ^ 0x50b0);
    reinitialize_tail(&mut substitute, partition.split, &mut init_rng);
    if !query_set.is_empty() {
        train_victim_with_workers(&mut substitute, &query_set, cfg, 1)?;
    }
    let accuracy = evaluate(&mut substitute, test)?;
    Ok(SubstituteAttackOutcome {
        data_fraction,
        samples_used,
        accuracy,
    })
}

/// Re-initializes units `split..` and the classifier with fresh weights —
/// the part of the model the attacker could not read.
fn reinitialize_tail(net: &mut ChainNet, split: usize, rng: &mut StdRng) {
    use tbnet_tensor::{init, Tensor};
    let n = net.units().len();
    for i in split..n {
        let unit = &mut net.units_mut()[i];
        let dims = unit.conv().weight().value.dims().to_vec();
        unit.conv_mut().set_weight(init::kaiming_normal(&dims, rng));
        let c = unit.out_channels();
        unit.bn_mut()
            .set_channel_state(
                Tensor::ones(&[c]),
                Tensor::zeros(&[c]),
                Tensor::zeros(&[c]),
                Tensor::ones(&[c]),
            )
            .expect("channel counts are consistent by construction");
    }
    let (out_f, in_f) = (
        net.head().linear().out_features(),
        net.head().linear().in_features(),
    );
    net.head_mut()
        .linear_mut()
        .set_weight(init::xavier_uniform(&[out_f, in_f], rng));
    net.head_mut()
        .linear_mut()
        .bias_mut()
        .set_value(Tensor::zeros(&[out_f]));
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbnet_data::{DatasetKind, SyntheticCifar};
    use tbnet_models::vgg;

    fn setup() -> (ChainNet, SyntheticCifar) {
        let data = SyntheticCifar::generate(
            DatasetKind::Cifar10Like
                .config()
                .with_classes(4)
                .with_train_per_class(20)
                .with_test_per_class(8)
                .with_size(8, 8)
                .with_noise_std(0.6),
        );
        let spec = vgg::vgg_from_stages("v", &[(8, 1), (8, 1), (8, 1)], 4, 3, (8, 8));
        let mut rng = StdRng::seed_from_u64(0);
        let mut victim = ChainNet::from_spec(&spec, &mut rng).unwrap();
        train_victim_with_workers(&mut victim, data.train(), &TrainConfig::paper_scaled(6), 1)
            .unwrap();
        (victim, data)
    }

    #[test]
    fn partition_validation() {
        let (victim, _) = setup();
        assert!(LayerPartition::new(victim.clone(), 0).is_err());
        assert!(LayerPartition::new(victim.clone(), 3).is_err());
        let p = LayerPartition::new(victim, 2).unwrap();
        assert_eq!(p.split(), 2);
        assert_eq!(p.exposed_units().len(), 2);
    }

    #[test]
    fn partition_deployment_keeps_victim_accuracy() {
        let (victim, data) = setup();
        let victim_acc = {
            let mut v = victim.clone();
            evaluate(&mut v, data.test()).unwrap()
        };
        let mut p = LayerPartition::new(victim, 1).unwrap();
        assert_eq!(p.accuracy(data.test()).unwrap(), victim_acc);
    }

    #[test]
    fn partition_tee_footprint_shrinks_with_split() {
        let (victim, _) = setup();
        let p1 = LayerPartition::new(victim.clone(), 1).unwrap();
        let p2 = LayerPartition::new(victim, 2).unwrap();
        assert!(p2.memory().unwrap().total() < p1.memory().unwrap().total());
    }

    #[test]
    fn partition_latency_prices() {
        let (victim, _) = setup();
        let p = LayerPartition::new(victim, 2).unwrap();
        let lat = p.latency(&CostModel::raspberry_pi3()).unwrap();
        assert!(lat.total_s > 0.0);
        assert_eq!(lat.switches, 2);
    }

    #[test]
    fn substitute_attack_reconstructs_partitioned_victim() {
        let (victim, data) = setup();
        let victim_acc = {
            let mut v = victim.clone();
            evaluate(&mut v, data.test()).unwrap()
        };
        // Expose 2 of 3 units; the attacker rebuilds the last unit + head
        // from the deployment's own predictions.
        let p = LayerPartition::new(victim, 2).unwrap();
        let out = substitute_model_attack(
            &p,
            data.train(),
            data.test(),
            1.0,
            &TrainConfig::paper_scaled(6),
        )
        .unwrap();
        assert_eq!(out.samples_used, data.train().len());
        assert!(
            out.accuracy > victim_acc * 0.7,
            "substitute attack only reached {} of victim {}",
            out.accuracy,
            victim_acc
        );
    }

    #[test]
    fn substitute_attack_with_no_data_is_chance() {
        let (victim, data) = setup();
        let p = LayerPartition::new(victim, 2).unwrap();
        let out = substitute_model_attack(
            &p,
            data.train(),
            data.test(),
            0.0,
            &TrainConfig::paper_scaled(2),
        )
        .unwrap();
        assert_eq!(out.samples_used, 0);
        // Fresh tail, no training: near chance.
        assert!(out.accuracy < 0.6);
    }
}

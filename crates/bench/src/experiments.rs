//! Shared experiment definitions: model/dataset grid, scale presets and the
//! scenario runner every table/figure binary builds on.

use tbnet_core::attack::direct_use_attack;
use tbnet_core::pipeline::{run_pipeline, PipelineConfig, TbnetArtifacts};
use tbnet_data::{DatasetKind, SyntheticCifar};
use tbnet_models::ModelSpec;

/// Which paper model a scenario uses (width-scaled variants; see
/// [`ModelKind::spec`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// The paper's VGG18 (scaled: `vgg_tiny`).
    Vgg18,
    /// The paper's ResNet-20 (scaled: `resnet20_tiny`).
    ResNet20,
}

impl ModelKind {
    /// Display label matching the paper's rows.
    pub fn label(self) -> &'static str {
        match self {
            ModelKind::Vgg18 => "VGG18",
            ModelKind::ResNet20 => "ResNet20",
        }
    }

    /// The experiment-scale spec for this model: width-scaled twins of the
    /// paper's models, trained on 16×16 synthetic images.
    pub fn spec(self, classes: usize) -> ModelSpec {
        match self {
            ModelKind::Vgg18 => tbnet_models::vgg::vgg_tiny(classes, 3, (16, 16)),
            ModelKind::ResNet20 => tbnet_models::resnet::resnet20_tiny(classes, 3, (16, 16)),
        }
    }

    /// Victim learning rate: residual nets at this scale need the paper's
    /// 0.1 to converge; the small VGG prefers 0.05.
    pub fn victim_lr(self) -> f32 {
        match self {
            ModelKind::Vgg18 => 0.05,
            ModelKind::ResNet20 => 0.1,
        }
    }

    /// Epoch multiplier: ResNet converges more slowly on the synthetic data.
    pub fn epoch_factor(self) -> f32 {
        match self {
            ModelKind::Vgg18 => 1.0,
            ModelKind::ResNet20 => 1.5,
        }
    }
}

/// Experiment scale: how much training each scenario gets.
#[derive(Debug, Clone, PartialEq)]
pub struct Scale {
    /// Scale name (for report headers).
    pub name: &'static str,
    /// Victim training epochs.
    pub victim_epochs: usize,
    /// Knowledge-transfer epochs.
    pub transfer_epochs: usize,
    /// Fine-tune epochs per pruning iteration.
    pub finetune_epochs: usize,
    /// Maximum pruning iterations.
    pub prune_iterations: usize,
    /// Channels pruned per iteration.
    pub prune_ratio: f32,
    /// Accuracy-drop budget θ_drop.
    pub drop_budget: f32,
    /// Epochs the fine-tuning attacker trains for.
    pub attack_epochs: usize,
    /// Data fractions for the Fig. 2 sweep.
    pub fractions: Vec<f64>,
}

impl Scale {
    /// Fast smoke scale (seconds per scenario).
    pub fn quick() -> Self {
        Scale {
            name: "quick",
            victim_epochs: 4,
            transfer_epochs: 5,
            finetune_epochs: 1,
            prune_iterations: 2,
            prune_ratio: 0.15,
            drop_budget: 0.06,
            attack_epochs: 3,
            fractions: vec![0.01, 0.1, 0.5, 1.0],
        }
    }

    /// The full experiment scale (minutes per scenario on one core).
    pub fn full() -> Self {
        Scale {
            name: "full",
            victim_epochs: 8,
            transfer_epochs: 10,
            finetune_epochs: 2,
            prune_iterations: 5,
            prune_ratio: 0.10,
            drop_budget: 0.04,
            attack_epochs: 6,
            fractions: vec![0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0],
        }
    }

    /// Reads `TBNET_SCALE` (`quick`/`full`), defaulting to `full`.
    pub fn from_env() -> Self {
        match std::env::var("TBNET_SCALE").as_deref() {
            Ok("quick") => Scale::quick(),
            _ => Scale::full(),
        }
    }

    /// Converts the scale into a pipeline configuration.
    pub fn pipeline_config(&self) -> PipelineConfig {
        let mut cfg = PipelineConfig::paper_scaled(
            self.victim_epochs,
            self.transfer_epochs,
            self.finetune_epochs,
        );
        cfg.prune.max_iterations = self.prune_iterations;
        cfg.prune.ratio = self.prune_ratio;
        cfg.prune.drop_budget = self.drop_budget;
        cfg
    }

    /// The attacker's training configuration.
    pub fn attack_config(&self) -> tbnet_core::train::TrainConfig {
        tbnet_core::train::TrainConfig::paper_scaled(self.attack_epochs)
    }
}

/// One (model, dataset) cell of the paper's evaluation grid, fully run.
pub struct Scenario {
    /// Which model.
    pub model: ModelKind,
    /// Which dataset.
    pub dataset: DatasetKind,
    /// The generated dataset.
    pub data: SyntheticCifar,
    /// Pipeline outputs (victim + finalized TBNet).
    pub artifacts: TbnetArtifacts,
    /// Direct-use attack accuracy (Table 1's "Attack Acc.").
    pub attack_acc: f32,
    /// Wall-clock seconds the scenario took.
    pub elapsed_s: f64,
}

/// Runs one grid cell end to end: dataset generation, the six-step pipeline
/// and the direct-use attack.
///
/// # Panics
///
/// Panics on internal pipeline errors — a benchmark binary has no meaningful
/// recovery, and the message names the failing stage.
pub fn run_scenario(model: ModelKind, dataset: DatasetKind, scale: &Scale) -> Scenario {
    let start = std::time::Instant::now();
    let data = SyntheticCifar::generate(dataset.config());
    let spec = model.spec(data.train().classes());
    let mut cfg = scale.pipeline_config();
    cfg.victim.lr = model.victim_lr();
    cfg.victim.epochs = ((cfg.victim.epochs as f32 * model.epoch_factor()).round() as usize).max(1);
    cfg.transfer.lr = model.victim_lr();
    cfg.transfer.epochs =
        ((cfg.transfer.epochs as f32 * model.epoch_factor()).round() as usize).max(1);
    let artifacts = run_pipeline(&spec, &data, &cfg).expect("pipeline failed (see stage in error)");
    let attack_acc =
        direct_use_attack(&artifacts.model, data.test()).expect("direct-use attack failed");
    Scenario {
        model,
        dataset,
        data,
        artifacts,
        attack_acc,
        elapsed_s: start.elapsed().as_secs_f64(),
    }
}

/// The full 2×2 grid of the paper's Table 1.
pub const GRID: [(DatasetKind, ModelKind); 4] = [
    (DatasetKind::Cifar10Like, ModelKind::Vgg18),
    (DatasetKind::Cifar10Like, ModelKind::ResNet20),
    (DatasetKind::Cifar100Like, ModelKind::Vgg18),
    (DatasetKind::Cifar100Like, ModelKind::ResNet20),
];

/// Formats a `[0, 1]` accuracy as a percentage string.
pub fn pct(x: f32) -> String {
    format!("{:.2}", x * 100.0)
}

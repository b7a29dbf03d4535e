//! Attacker's-eye view of a TBNet deployment: direct transplantation and
//! fine-tuning with increasing amounts of stolen training data (the paper's
//! Fig. 2 scenario).
//!
//! ```sh
//! cargo run --release --example attack_study
//! ```

use tbnet_core::attack::{direct_use_attack, fine_tune_attack_with_workers};
use tbnet_core::dp_train::WorkerPolicy;
use tbnet_core::pipeline::{run_pipeline, PipelineConfig};
use tbnet_core::train::TrainConfig;
use tbnet_data::{DatasetKind, SyntheticCifar};
use tbnet_models::vgg;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = SyntheticCifar::generate(
        DatasetKind::Cifar10Like
            .config()
            .with_train_per_class(40)
            .with_test_per_class(15),
    );
    let spec = vgg::vgg_tiny(data.train().classes(), 3, (16, 16));
    println!("deploying TBNet…");
    let artifacts = run_pipeline(&spec, &data, &PipelineConfig::smoke())?;
    println!("TBNet accuracy: {:.1}%\n", artifacts.tbnet_acc * 100.0);

    // The attacker reads M_R (architecture + weights) straight out of REE
    // memory — that is the threat model; no exploit needed in the simulation.
    let direct = direct_use_attack(&artifacts.model, data.test())?;
    println!("direct use of stolen M_R: {:.1}%", direct * 100.0);

    println!("\nfine-tuning the stolen branch with partial training data:");
    println!("{:>10} {:>9} {:>11}", "fraction", "samples", "attacker %");
    let cfg = TrainConfig::paper_scaled(4);
    for frac in [0.01, 0.1, 0.25, 0.5, 1.0] {
        let out = fine_tune_attack_with_workers(
            &artifacts.model,
            data.train(),
            data.test(),
            frac,
            &cfg,
            WorkerPolicy::Auto,
        )?;
        println!(
            "{:>9.0}% {:>9} {:>10.1}%",
            frac * 100.0,
            out.samples_used,
            out.accuracy * 100.0
        );
    }
    println!(
        "\nTBNet stays at {:.1}% — the attacker cannot match it even with 100% of the data.",
        artifacts.tbnet_acc * 100.0
    );
    Ok(())
}

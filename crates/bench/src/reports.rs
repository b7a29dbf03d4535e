//! Report generators: one function per paper table/figure, reused by the
//! individual binaries and by `bin/all`.

use tbnet_core::analysis::bn_weight_report;
use tbnet_core::attack::{fine_tune_attack_with_workers, retrain_secure_branch_alone};
use tbnet_core::deploy::DeploymentPlan;
use tbnet_core::dp_train::WorkerPolicy;
use tbnet_core::pruning::total_channels;
use tbnet_core::train::{train_victim_with_workers, TrainConfig};
use tbnet_core::transfer::{train_two_branch_with_workers, TransferConfig};
use tbnet_core::TwoBranchModel;
use tbnet_data::{DatasetKind, SyntheticCifar};
use tbnet_models::ChainNet;
use tbnet_tee::CostModel;

use crate::experiments::{pct, ModelKind, Scale, Scenario};
use crate::table::TextTable;

/// Paper reference numbers for Table 1 (victim, TBNet, attack, gap in %).
pub const PAPER_TABLE1: [(DatasetKind, ModelKind, [f32; 4]); 4] = [
    (
        DatasetKind::Cifar10Like,
        ModelKind::Vgg18,
        [91.29, 90.72, 69.80, 20.92],
    ),
    (
        DatasetKind::Cifar10Like,
        ModelKind::ResNet20,
        [92.27, 91.68, 10.00, 81.68],
    ),
    (
        DatasetKind::Cifar100Like,
        ModelKind::Vgg18,
        [67.41, 68.37, 42.64, 25.73],
    ),
    (
        DatasetKind::Cifar100Like,
        ModelKind::ResNet20,
        [71.03, 69.49, 20.29, 48.54],
    ),
];

fn paper_table1_row(dataset: DatasetKind, model: ModelKind) -> Option<[f32; 4]> {
    PAPER_TABLE1
        .iter()
        .find(|(d, m, _)| *d == dataset && *m == model)
        .map(|(_, _, v)| *v)
}

/// Table 1 — accuracy of TBNet and protection against direct model usage.
pub fn report_table1(scenarios: &[Scenario]) -> String {
    let mut t = TextTable::new(&[
        "Dataset",
        "DNN",
        "Victim %",
        "TBNet %",
        "Attack %",
        "Gap %",
        "paper: victim/tbnet/attack/gap",
    ]);
    for s in scenarios {
        let gap = (s.artifacts.tbnet_acc - s.attack_acc) * 100.0;
        let paper = paper_table1_row(s.dataset, s.model)
            .map(|p| format!("{:.2}/{:.2}/{:.2}/{:.2}", p[0], p[1], p[2], p[3]))
            .unwrap_or_default();
        t.row(&[
            s.dataset.label().into(),
            s.model.label().into(),
            pct(s.artifacts.victim_acc),
            pct(s.artifacts.tbnet_acc),
            pct(s.attack_acc),
            format!("{gap:.2}"),
            paper,
        ]);
    }
    format!(
        "Table 1 — TBNet performance and protection against direct use\n{}",
        t.render()
    )
}

/// Table 2 — best-possible `M_T`-only (retrained on all data) vs TBNet.
pub fn report_table2(scenarios: &[Scenario], scale: &Scale) -> String {
    let mut t = TextTable::new(&[
        "DNN",
        "TBNet %",
        "M_T alone %",
        "Drop %",
        "paper: tbnet/mt/drop",
    ]);
    let paper = [
        (ModelKind::Vgg18, "91.29/87.57/3.72"),
        (ModelKind::ResNet20, "92.27/89.41/2.86"),
    ];
    for s in scenarios
        .iter()
        .filter(|s| s.dataset == DatasetKind::Cifar10Like)
    {
        let mt_alone = retrain_secure_branch_alone(
            &s.artifacts.model,
            s.data.train(),
            s.data.test(),
            &scale.attack_config(),
        )
        .expect("M_T-only retraining failed");
        let p = paper
            .iter()
            .find(|(m, _)| *m == s.model)
            .map(|(_, v)| v.to_string())
            .unwrap_or_default();
        t.row(&[
            s.model.label().into(),
            pct(s.artifacts.tbnet_acc),
            pct(mt_alone),
            format!("{:.2}", (s.artifacts.tbnet_acc - mt_alone) * 100.0),
            p,
        ]);
    }
    format!(
        "Table 2 — necessity of the unsecured branch (M_T retrained alone)\n{}",
        t.render()
    )
}

/// Table 3 — inference latency: whole victim in the TEE vs TBNet split.
pub fn report_table3(scenarios: &[Scenario]) -> String {
    let cost = CostModel::raspberry_pi3();
    let mut t = TextTable::new(&[
        "DNN",
        "Baseline (s)",
        "TBNet (s)",
        "Reduction",
        "paper: base/tbnet/red",
    ]);
    let paper = [
        (ModelKind::Vgg18, "2.3983/1.9589/1.22x"),
        (ModelKind::ResNet20, "3.7425/3.2667/1.15x"),
    ];
    for s in scenarios
        .iter()
        .filter(|s| s.dataset == DatasetKind::Cifar10Like)
    {
        let plan = DeploymentPlan::new(&s.artifacts.model, s.artifacts.victim.spec())
            .expect("deployment plan");
        let lat = plan.latency(&cost).expect("latency simulation");
        let p = paper
            .iter()
            .find(|(m, _)| *m == s.model)
            .map(|(_, v)| v.to_string())
            .unwrap_or_default();
        t.row(&[
            s.model.label().into(),
            format!("{:.6}", lat.baseline.total_s),
            format!("{:.6}", lat.tbnet.total_s),
            format!("{:.2}x", lat.reduction_factor()),
            p,
        ]);
    }
    format!(
        "Table 3 — inference latency (simulated Raspberry Pi 3 + OP-TEE cost model)\n{}",
        t.render()
    )
}

/// Fig. 2 — attacker fine-tunes the stolen `M_R` with varying data
/// availability (VGG18, both datasets).
pub fn report_fig2(scenarios: &[Scenario], scale: &Scale) -> String {
    let mut out = String::from("Fig. 2 — fine-tuning attack on M_R (VGG18)\n");
    for s in scenarios.iter().filter(|s| s.model == ModelKind::Vgg18) {
        let mut t = TextTable::new(&["Data fraction", "Samples", "Attacker %", "TBNet %"]);
        for &frac in &scale.fractions {
            let o = fine_tune_attack_with_workers(
                &s.artifacts.model,
                s.data.train(),
                s.data.test(),
                frac,
                &scale.attack_config(),
                WorkerPolicy::Auto,
            )
            .expect("fine-tune attack failed");
            t.row(&[
                format!("{:.0}%", frac * 100.0),
                o.samples_used.to_string(),
                pct(o.accuracy),
                pct(s.artifacts.tbnet_acc),
            ]);
        }
        out.push_str(&format!(
            "\n{} (paper at 100%: attacker 65.59 vs TBNet 68.37 on CIFAR100)\n{}",
            s.dataset.label(),
            t.render()
        ));
    }
    out
}

/// Fig. 3 — secure-memory usage: baseline vs TBNet for all four combos.
pub fn report_fig3(scenarios: &[Scenario]) -> String {
    let mut t = TextTable::new(&[
        "Dataset",
        "DNN",
        "Baseline (KiB)",
        "TBNet (KiB)",
        "Reduction",
        "paper red.",
    ]);
    let paper = [
        (DatasetKind::Cifar10Like, ModelKind::Vgg18, "2.45x"),
        (DatasetKind::Cifar10Like, ModelKind::ResNet20, "1.9x"),
        (DatasetKind::Cifar100Like, ModelKind::Vgg18, "1.68x"),
        (DatasetKind::Cifar100Like, ModelKind::ResNet20, "1.46x"),
    ];
    for s in scenarios {
        let plan = DeploymentPlan::new(&s.artifacts.model, s.artifacts.victim.spec())
            .expect("deployment plan");
        let mem = plan.memory().expect("memory report");
        let p = paper
            .iter()
            .find(|(d, m, _)| *d == s.dataset && *m == s.model)
            .map(|(_, _, v)| v.to_string())
            .unwrap_or_default();
        t.row(&[
            s.dataset.label().into(),
            s.model.label().into(),
            format!("{:.1}", mem.baseline.total() as f64 / 1024.0),
            format!("{:.1}", mem.tbnet.total() as f64 / 1024.0),
            format!("{:.2}x", mem.reduction_factor()),
            p,
        ]);
    }
    format!("Fig. 3 — TEE memory usage comparison\n{}", t.render())
}

/// Builds a two-branch model and runs *only* knowledge transfer — the state
/// Fig. 4 inspects.
pub fn run_transfer_only(
    model: ModelKind,
    dataset: DatasetKind,
    scale: &Scale,
) -> (TwoBranchModel, SyntheticCifar) {
    use rand::SeedableRng;
    let data = SyntheticCifar::generate(dataset.config());
    let spec = model.spec(data.train().classes());
    let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
    let mut victim = ChainNet::from_spec(&spec, &mut rng).expect("victim construction");
    train_victim_with_workers(
        &mut victim,
        data.train(),
        &TrainConfig::paper_scaled(scale.victim_epochs),
        1,
    )
    .expect("victim training");
    let mut tb = TwoBranchModel::from_victim(&victim, &mut rng).expect("two-branch init");
    train_two_branch_with_workers(
        &mut tb,
        data.train(),
        &TransferConfig::paper_scaled(scale.transfer_epochs),
        tbnet_tensor::par::max_threads(),
    )
    .expect("knowledge transfer");
    (tb, data)
}

/// Fig. 4 — distribution of BN scales in `M_R` and `M_T` after knowledge
/// transfer.
pub fn report_fig4(model: &TwoBranchModel) -> String {
    let report = bn_weight_report(model, 10);
    let mut out = String::from("Fig. 4 — BN weight (γ) distribution after knowledge transfer\n");
    out.push_str(&format!(
        "M_R: n={} mean={:.4} median={:.4} frac|γ|<0.1={:.2}\n",
        report.mr.count, report.mr.mean, report.mr.median, report.mr.frac_small
    ));
    out.push_str(&format!(
        "M_T: n={} mean={:.4} median={:.4} frac|γ|<0.1={:.2}\n",
        report.mt.count, report.mt.mean, report.mt.median, report.mt.frac_small
    ));
    out.push_str(&format!(
        "paper shape: mean γ of M_R < mean γ of M_T — {}\n",
        if report.mr.mean < report.mt.mean {
            "REPRODUCED"
        } else {
            "NOT reproduced at this scale"
        }
    ));
    let render_hist = |name: &str, h: &tbnet_core::analysis::Histogram| {
        let mut s = format!("{name} histogram [{:.3}, {:.3}):\n", h.lo, h.hi);
        let max = h.counts.iter().copied().max().unwrap_or(1).max(1);
        for (i, &c) in h.counts.iter().enumerate() {
            let bar = "#".repeat((c as usize * 40) / max as usize);
            s.push_str(&format!("  {:>7.3} | {:<40} {}\n", h.bin_center(i), bar, c));
        }
        s
    };
    out.push_str(&render_hist("M_R", &report.mr_hist));
    out.push_str(&render_hist("M_T", &report.mt_hist));
    out
}

/// One-line summary of a scenario's pruning outcome (handy in all reports).
pub fn scenario_summary(s: &Scenario) -> String {
    format!(
        "{}/{}: victim {}%, TBNet {}%, attack {}%, M_T channels {}, {} prune iters, {:.0}s",
        s.dataset.label(),
        s.model.label(),
        pct(s.artifacts.victim_acc),
        pct(s.artifacts.tbnet_acc),
        pct(s.attack_acc),
        total_channels(&s.artifacts.model),
        s.artifacts.prune_history.len(),
        s.elapsed_s
    )
}

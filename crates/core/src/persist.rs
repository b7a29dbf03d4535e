//! Model persistence: JSON checkpointing of trained networks and finalized
//! two-branch models.
//!
//! The experiment harness trains for minutes per scenario; checkpoints let
//! the table/figure binaries share artifacts and let users audit exactly
//! which weights a deployment shipped. States capture everything inference
//! needs — weights, BatchNorm statistics, channel books and alignment maps —
//! and restoring is validated by prediction-equality tests.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use tbnet_models::{ChainNet, ModelSpec};
use tbnet_tensor::Tensor;

use crate::channels::ChannelBook;
use crate::{CoreError, Result, TwoBranchModel};

/// Serializable state of one conv-BN unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnitState {
    /// Convolution weight `[O, I, K, K]`.
    pub conv_weight: Tensor,
    /// BatchNorm scale γ `[O]`.
    pub gamma: Tensor,
    /// BatchNorm offset β `[O]`.
    pub beta: Tensor,
    /// BatchNorm running mean `[O]`.
    pub running_mean: Tensor,
    /// BatchNorm running variance `[O]`.
    pub running_var: Tensor,
}

/// Serializable state of a whole [`ChainNet`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChainNetState {
    /// The architecture (reconstructed exactly, including skips/groups).
    pub spec: ModelSpec,
    /// Per-unit weights and statistics.
    pub units: Vec<UnitState>,
    /// Classifier weight `[classes, features]`.
    pub head_weight: Tensor,
    /// Classifier bias `[classes]`.
    pub head_bias: Tensor,
}

impl ChainNetState {
    /// Captures a network's current weights and statistics.
    pub fn capture(net: &ChainNet) -> Self {
        ChainNetState {
            spec: net.spec(),
            units: net
                .units()
                .iter()
                .map(|u| UnitState {
                    conv_weight: u.conv().weight().value.clone(),
                    gamma: u.bn().gamma().value.clone(),
                    beta: u.bn().beta().value.clone(),
                    running_mean: u.bn().running_mean().clone(),
                    running_var: u.bn().running_var().clone(),
                })
                .collect(),
            head_weight: net.head().linear().weight().value.clone(),
            head_bias: net.head().linear().bias().value.clone(),
        }
    }

    /// Rebuilds an executable network from the captured state.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Model`] when the spec fails validation or the
    /// stored tensors disagree with it.
    pub fn restore(&self) -> Result<ChainNet> {
        // Initialize a structurally-correct network, then overwrite weights.
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = ChainNet::from_spec(&self.spec, &mut rng)?;
        if net.units().len() != self.units.len() {
            return Err(CoreError::Model(tbnet_models::ModelError::InvalidSpec {
                reason: format!(
                    "state has {} units, spec builds {}",
                    self.units.len(),
                    net.units().len()
                ),
            }));
        }
        for (unit, state) in net.units_mut().iter_mut().zip(&self.units) {
            if unit.conv().weight().value.dims() != state.conv_weight.dims() {
                return Err(CoreError::Model(tbnet_models::ModelError::InvalidSpec {
                    reason: format!(
                        "stored conv weight {:?} does not match spec {:?}",
                        state.conv_weight.dims(),
                        unit.conv().weight().value.dims()
                    ),
                }));
            }
            unit.conv_mut().set_weight(state.conv_weight.clone());
            unit.bn_mut().set_channel_state(
                state.gamma.clone(),
                state.beta.clone(),
                state.running_mean.clone(),
                state.running_var.clone(),
            )?;
        }
        let expected = net.head().linear().weight().value.dims().to_vec();
        if self.head_weight.dims() != expected {
            return Err(CoreError::Model(tbnet_models::ModelError::InvalidSpec {
                reason: format!(
                    "stored head weight {:?} does not match spec {:?}",
                    self.head_weight.dims(),
                    expected
                ),
            }));
        }
        let expected = net.head().linear().bias().value.dims().to_vec();
        if self.head_bias.dims() != expected {
            return Err(CoreError::Model(tbnet_models::ModelError::InvalidSpec {
                reason: format!(
                    "stored head bias {:?} does not match spec {:?}",
                    self.head_bias.dims(),
                    expected
                ),
            }));
        }
        net.head_mut()
            .linear_mut()
            .set_weight(self.head_weight.clone());
        net.head_mut()
            .linear_mut()
            .bias_mut()
            .set_value(self.head_bias.clone());
        Ok(net)
    }
}

/// Serializable state of a finalized (or in-progress) [`TwoBranchModel`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TwoBranchState {
    /// The unsecured branch.
    pub mr: ChainNetState,
    /// The secure branch.
    pub mt: ChainNetState,
    /// `M_R`'s surviving original channel ids per unit.
    pub mr_book: Vec<Vec<usize>>,
    /// `M_T`'s surviving original channel ids per unit.
    pub mt_book: Vec<Vec<usize>>,
    /// Merge alignment maps (`None` = identity).
    pub align: Vec<Option<Vec<usize>>>,
    /// Whether rollback finalization has run.
    pub finalized: bool,
}

impl TwoBranchState {
    /// Captures a two-branch model.
    pub fn capture(model: &TwoBranchModel) -> Self {
        TwoBranchState {
            mr: ChainNetState::capture(model.mr()),
            mt: ChainNetState::capture(model.mt()),
            mr_book: book_parts(model.mr_book()),
            mt_book: book_parts(model.mt_book()),
            align: model.align().to_vec(),
            finalized: model.is_finalized(),
        }
    }

    /// Rebuilds the two-branch model.
    ///
    /// # Errors
    ///
    /// Returns validation errors when branches or books are inconsistent.
    pub fn restore(&self) -> Result<TwoBranchModel> {
        let mr = self.mr.restore()?;
        let mt = self.mt.restore()?;
        TwoBranchModel::from_parts(
            mr,
            mt,
            ChannelBook::from_parts(self.mr_book.clone()),
            ChannelBook::from_parts(self.mt_book.clone()),
            self.align.clone(),
            self.finalized,
        )
    }
}

fn book_parts(book: &ChannelBook) -> Vec<Vec<usize>> {
    (0..book.len()).map(|i| book.unit(i).to_vec()).collect()
}

/// Saves any serializable state as pretty-printed JSON.
///
/// # Errors
///
/// Returns [`CoreError::PersistError`] on I/O or encoding failure.
pub fn save_json<T: Serialize, P: AsRef<Path>>(value: &T, path: P) -> Result<()> {
    let file = File::create(path.as_ref()).map_err(|e| CoreError::PersistError {
        reason: format!("create {}: {e}", path.as_ref().display()),
    })?;
    serde_json::to_writer(BufWriter::new(file), value).map_err(|e| CoreError::PersistError {
        reason: format!("encode {}: {e}", path.as_ref().display()),
    })
}

/// Loads a serializable state from JSON.
///
/// # Errors
///
/// Returns [`CoreError::PersistError`] on I/O or decoding failure.
pub fn load_json<T: for<'de> Deserialize<'de>, P: AsRef<Path>>(path: P) -> Result<T> {
    let file = File::open(path.as_ref()).map_err(|e| CoreError::PersistError {
        reason: format!("open {}: {e}", path.as_ref().display()),
    })?;
    serde_json::from_reader(BufReader::new(file)).map_err(|e| CoreError::PersistError {
        reason: format!("decode {}: {e}", path.as_ref().display()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tbnet_models::vgg;
    use tbnet_nn::{Layer, Mode};
    use tbnet_tensor::init;

    fn trained_net() -> ChainNet {
        let mut rng = StdRng::seed_from_u64(1);
        let spec = vgg::vgg_from_stages("p", &[(6, 1), (8, 1)], 4, 3, (8, 8));
        ChainNet::from_spec(&spec, &mut rng).unwrap()
    }

    #[test]
    fn chain_net_roundtrip_preserves_predictions() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = trained_net();
        let x = init::randn(&[3, 3, 8, 8], 1.0, &mut rng);
        let before = net.forward(&x, Mode::Eval).unwrap();
        let state = ChainNetState::capture(&net);
        let mut restored = state.restore().unwrap();
        let after = restored.forward(&x, Mode::Eval).unwrap();
        assert_eq!(before.as_slice(), after.as_slice());
    }

    #[test]
    fn restore_rejects_shape_tampering() {
        let net = trained_net();
        let mut state = ChainNetState::capture(&net);
        state.units[0].conv_weight = Tensor::zeros(&[2, 3, 3, 3]);
        // Spec still says 6 channels — mismatch must be caught.
        assert!(state.restore().is_err());
        let mut state = ChainNetState::capture(&net);
        state.head_weight = Tensor::zeros(&[4, 1]);
        assert!(state.restore().is_err());
    }

    #[test]
    fn two_branch_roundtrip_preserves_predictions() {
        let mut rng = StdRng::seed_from_u64(3);
        let victim = trained_net();
        let mut tb = TwoBranchModel::from_victim(&victim, &mut rng).unwrap();
        let x = init::randn(&[2, 3, 8, 8], 1.0, &mut rng);
        let before = tb.predict(&x).unwrap();
        let state = TwoBranchState::capture(&tb);
        let mut restored = state.restore().unwrap();
        let after = restored.predict(&x).unwrap();
        assert_eq!(before.as_slice(), after.as_slice());
        assert_eq!(restored.is_finalized(), tb.is_finalized());
    }

    #[test]
    fn json_file_roundtrip() {
        let net = trained_net();
        let state = ChainNetState::capture(&net);
        let dir = std::env::temp_dir().join("tbnet_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("net.json");
        save_json(&state, &path).unwrap();
        let loaded: ChainNetState = load_json(&path).unwrap();
        assert_eq!(loaded, state);
        std::fs::remove_file(&path).ok();
    }

    /// Writes `state` as JSON, lets `edit` tamper with the text, and loads
    /// it back.
    fn tampered_load(
        state: &ChainNetState,
        name: &str,
        edit: impl Fn(&str) -> String,
    ) -> Result<ChainNetState> {
        let dir = std::env::temp_dir().join("tbnet_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let text = serde_json::to_string(state).unwrap();
        std::fs::write(&path, edit(&text)).unwrap();
        let loaded = load_json(&path);
        std::fs::remove_file(&path).ok();
        loaded
    }

    /// A checkpoint that disagrees with itself is an error at load or
    /// restore time, never a tensor that panics in the first forward: a
    /// conv weight with one value dropped, a weight whose dims disagree
    /// with its data, a file cut short, and a head bias of the wrong
    /// length.
    #[test]
    fn corrupt_checkpoints_are_errors_not_panics() {
        let spec = tbnet_models::mobile::mobile_tiny(4, 3, (8, 8));
        let net = ChainNet::from_spec(&spec, &mut StdRng::seed_from_u64(4)).unwrap();
        let state = ChainNetState::capture(&net);
        let data = |t: &Tensor| {
            let v: Vec<String> = t
                .as_slice()
                .iter()
                .map(|x| serde_json::to_string(x).unwrap())
                .collect();
            v.join(",")
        };
        let w0 = &state.units[0].conv_weight;
        let full = data(w0);
        let truncated = full[..full.rfind(',').unwrap()].to_string();
        let r = tampered_load(&state, "truncated_tensor.json", |t| {
            t.replacen(&full, &truncated, 1)
        });
        assert!(
            matches!(r, Err(CoreError::PersistError { .. })),
            "dropped value loaded"
        );

        let dims = serde_json::to_string(&w0.dims().to_vec()).unwrap();
        let mut bad = w0.dims().to_vec();
        bad[0] += 1;
        let bad = serde_json::to_string(&bad).unwrap();
        let r = tampered_load(&state, "dims_mismatch.json", |t| t.replacen(&dims, &bad, 1));
        assert!(
            matches!(r, Err(CoreError::PersistError { .. })),
            "mismatched dims loaded"
        );

        let r = tampered_load(&state, "cut_short.json", |t| t[..t.len() / 2].to_string());
        assert!(
            matches!(r, Err(CoreError::PersistError { .. })),
            "half a file loaded"
        );

        let mut short_bias = state.clone();
        short_bias.head_bias = Tensor::zeros(&[3]);
        assert!(
            short_bias.restore().is_err(),
            "wrong-length head bias restored"
        );

        // The untampered checkpoint still loads and restores.
        let r = tampered_load(&state, "intact.json", str::to_string).unwrap();
        assert_eq!(r, state);
        assert!(r.restore().is_ok());
    }

    /// Seeded random corruptions of a finalized two-branch checkpoint (its
    /// merges select `M_R` channels), each either cut short at a random
    /// offset or with one byte replaced by a JSON-significant character,
    /// are an error at decode or restore time, or restore a model whose
    /// inference returns without panicking.
    #[test]
    fn random_checkpoint_corruption_never_panics() {
        const ALPHABET: &[u8] = b"0123456789-.,:\"[]{}en";
        let mut rng = StdRng::seed_from_u64(5);
        let mut tb = TwoBranchModel::from_victim(&trained_net(), &mut rng).unwrap();
        let (mr, book) = (tb.mr().clone(), tb.mr_book().clone());
        let masks: Vec<Vec<bool>> = tb
            .mt()
            .units()
            .iter()
            .map(|u| (0..u.out_channels()).map(|c| c % 3 != 1).collect())
            .collect();
        crate::pruning::prune_two_branch_once(&mut tb, &masks).unwrap();
        tb.finalize_with_rollback(mr, book).unwrap();
        assert!(tb.align().iter().all(Option::is_some));
        let text = serde_json::to_string(&TwoBranchState::capture(&tb)).unwrap();
        assert!(text.is_ascii());
        let x = init::randn(&[1, 3, 8, 8], 1.0, &mut rng);
        let (mut rejected, mut restored) = (0usize, 0usize);
        for case in 0..2000 {
            let mut bytes = text.clone().into_bytes();
            if case % 2 == 0 {
                bytes.truncate(rng.gen_range(0..bytes.len()));
            } else {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] = ALPHABET[rng.gen_range(0..ALPHABET.len())];
            }
            let corrupted = String::from_utf8(bytes).unwrap();
            match serde_json::from_str::<TwoBranchState>(&corrupted).map(|s| s.restore()) {
                Ok(Ok(mut model)) => {
                    restored += 1;
                    let _ = model.predict(&x);
                    let _ = model.predict_fused(&x);
                }
                _ => rejected += 1,
            }
        }
        assert!(
            rejected > 0 && restored > 0,
            "{rejected} rejected, {restored} restored"
        );
    }

    #[test]
    fn load_missing_file_errors() {
        let r: Result<ChainNetState> = load_json("/nonexistent/tbnet.json");
        assert!(matches!(r, Err(CoreError::PersistError { .. })));
    }
}

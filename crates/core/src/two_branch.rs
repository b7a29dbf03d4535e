//! The two-branch substitution model (paper step ① plus the merge semantics
//! used by every later step).
//!
//! Structure (paper Fig. 1): the unsecured branch `M_R` starts as the victim
//! model (weights included, skip connections stripped for residual victims);
//! the secure branch `M_T` starts as a freshly initialized copy of the
//! victim *architecture* (skips included). Inference interleaves the
//! branches: after unit `i`, `M_R`'s feature map is element-wise added into
//! `M_T`'s feature map, and the sum is the input of `M_T`'s unit `i+1`.
//! Data only ever flows `M_R → M_T`, matching the one-way channel the TEE
//! substrate enforces. The final prediction comes from `M_T`'s classifier.
//!
//! After rollback finalization `M_R` is wider than `M_T`; the merge then
//! gathers the aligned subset of `M_R`'s channels (see
//! [`crate::ChannelBook`]).

use std::time::{Duration, Instant};

use rand::Rng;

use tbnet_models::{accumulate_grad, ChainNet, QuantBranch};
use tbnet_nn::loss::softmax_cross_entropy_scaled;
use tbnet_nn::metrics::accuracy;
use tbnet_nn::optim::Sgd;
use tbnet_nn::{Layer, Mode, Param};
use tbnet_tensor::{backend, ops, BackendKind, Tensor};

use crate::channels::{gather_channels, scatter_add_channels, ChannelBook};
use crate::dp_train::{DpShard, DpTrainable};
use crate::{CoreError, Result};

/// The TBNet two-branch substitution model.
#[derive(Debug, Clone)]
pub struct TwoBranchModel {
    mr: ChainNet,
    mt: ChainNet,
    mr_book: ChannelBook,
    mt_book: ChannelBook,
    /// Per-unit merge alignment: `None` is an identity merge (equal widths);
    /// `Some(idx)` gathers `M_R` channels `idx` before the add.
    align: Vec<Option<Vec<usize>>>,
    /// Cached `M_R` unit-output dims from the last training forward (needed
    /// to scatter merge gradients back).
    r_dims: Vec<Vec<usize>>,
    finalized: bool,
    backend: BackendKind,
    /// Int8 snapshot of `M_R` for [`TwoBranchModel::predict_int8`], built
    /// lazily and dropped whenever `M_R`'s weights or statistics may change
    /// (training forwards, `visit_params`, `mr_mut`, backend switches,
    /// rollback finalization).
    qmr: Option<QuantBranch>,
}

impl TwoBranchModel {
    /// Step ① — two-branch initialization.
    ///
    /// `M_R` clones the victim (architecture, weights and classifier) with
    /// residual skips stripped; `M_T` is a freshly initialized instance of
    /// the full victim architecture.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Model`] when the victim spec fails validation.
    pub fn from_victim<R: Rng + ?Sized>(victim: &ChainNet, rng: &mut R) -> Result<Self> {
        let spec = victim.spec();
        spec.trace()?;
        let mut mr = victim.clone();
        for u in mr.units_mut() {
            u.set_skip_from(None);
        }
        let mt = ChainNet::from_spec(&spec, rng)?;
        let channels: Vec<usize> = spec.units.iter().map(|u| u.out_channels).collect();
        let n = channels.len();
        Ok(TwoBranchModel {
            backend: backend::global_kind(),
            mr,
            mt,
            mr_book: ChannelBook::identity(&channels),
            mt_book: ChannelBook::identity(&channels),
            align: vec![None; n],
            r_dims: vec![Vec::new(); n],
            finalized: false,
            qmr: None,
        })
    }

    /// Reassembles a model from persisted parts, re-validating the branch
    /// and book invariants. Intended for [`crate::persist`]; prefer
    /// [`TwoBranchModel::from_victim`] for construction.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BranchMismatch`] when unit counts disagree or
    /// [`CoreError::AlignmentError`] when an alignment map indexes outside
    /// the branches' channel ranges.
    pub fn from_parts(
        mr: ChainNet,
        mt: ChainNet,
        mr_book: ChannelBook,
        mt_book: ChannelBook,
        align: Vec<Option<Vec<usize>>>,
        finalized: bool,
    ) -> Result<Self> {
        let n = mt.units().len();
        if mr.units().len() != n || mr_book.len() != n || mt_book.len() != n || align.len() != n {
            return Err(CoreError::BranchMismatch {
                reason: format!(
                    "inconsistent part sizes: mr {} units, mt {n}, books {}/{}, align {}",
                    mr.units().len(),
                    mr_book.len(),
                    mt_book.len(),
                    align.len()
                ),
            });
        }
        for (i, (map, (ru, tu))) in align
            .iter()
            .zip(mr.units().iter().zip(mt.units()))
            .enumerate()
        {
            match map {
                None => {
                    if ru.out_channels() != tu.out_channels() {
                        return Err(CoreError::AlignmentError {
                            unit: i,
                            reason: format!(
                                "identity merge with {} vs {} channels",
                                ru.out_channels(),
                                tu.out_channels()
                            ),
                        });
                    }
                }
                Some(idx) => {
                    if idx.len() != tu.out_channels() {
                        return Err(CoreError::AlignmentError {
                            unit: i,
                            reason: format!(
                                "alignment selects {} channels, M_T has {}",
                                idx.len(),
                                tu.out_channels()
                            ),
                        });
                    }
                    if idx.iter().any(|&p| p >= ru.out_channels()) {
                        return Err(CoreError::AlignmentError {
                            unit: i,
                            reason: "alignment indexes past M_R's channels".into(),
                        });
                    }
                }
            }
        }
        Ok(TwoBranchModel {
            backend: backend::global_kind(),
            mr,
            mt,
            mr_book,
            mt_book,
            align,
            r_dims: vec![Vec::new(); n],
            finalized,
            qmr: None,
        })
    }

    /// Re-pins both branches (and the merge arithmetic) to a compute
    /// backend.
    pub fn set_backend(&mut self, kind: BackendKind) {
        self.backend = kind;
        self.mr.set_backend(kind);
        self.mt.set_backend(kind);
        self.qmr = None;
    }

    /// The compute backend the merge and gradient-accumulation arithmetic
    /// runs on (the data-parallel trainer mirrors the backward with it).
    pub fn backend_kind(&self) -> BackendKind {
        self.backend
    }

    /// The unsecured branch `M_R` (attacker-visible in deployment).
    pub fn mr(&self) -> &ChainNet {
        &self.mr
    }

    /// Mutable access to `M_R` (pruning rewrites it). Drops the cached int8
    /// snapshot — the caller may mutate weights through the reference.
    pub fn mr_mut(&mut self) -> &mut ChainNet {
        self.qmr = None;
        &mut self.mr
    }

    /// The secure branch `M_T` (TEE-resident in deployment).
    pub fn mt(&self) -> &ChainNet {
        &self.mt
    }

    /// Mutable access to `M_T`.
    pub fn mt_mut(&mut self) -> &mut ChainNet {
        &mut self.mt
    }

    /// `M_R`'s surviving-channel book.
    pub fn mr_book(&self) -> &ChannelBook {
        &self.mr_book
    }

    /// Mutable access to `M_R`'s channel book (updated by pruning).
    pub fn mr_book_mut(&mut self) -> &mut ChannelBook {
        &mut self.mr_book
    }

    /// `M_T`'s surviving-channel book.
    pub fn mt_book(&self) -> &ChannelBook {
        &self.mt_book
    }

    /// Mutable access to `M_T`'s channel book (updated by pruning).
    pub fn mt_book_mut(&mut self) -> &mut ChannelBook {
        &mut self.mt_book
    }

    /// The per-unit merge alignment maps (`None` = identity).
    pub fn align(&self) -> &[Option<Vec<usize>>] {
        &self.align
    }

    /// Whether rollback finalization has run.
    pub fn is_finalized(&self) -> bool {
        self.finalized
    }

    /// Number of units per branch.
    pub fn unit_count(&self) -> usize {
        self.mt.units().len()
    }

    /// A standalone copy of the unsecured branch — exactly what an attacker
    /// extracts from REE memory under the threat model.
    pub fn extract_unsecured_branch(&self) -> ChainNet {
        self.mr.clone()
    }

    /// Step ⑥ — rollback finalization.
    ///
    /// Replaces `M_R` with its state (and channel book) from *before* the
    /// most recent pruning iteration, making the deployed `M_R` architecture
    /// diverge from `M_T`'s, and computes the channel-alignment maps the TEE
    /// uses to extract matching channels from the wider incoming feature
    /// maps.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::AlignmentError`] / [`CoreError::BranchMismatch`]
    /// when `M_T`'s surviving channels are not a subset of the rolled-back
    /// `M_R`'s.
    pub fn finalize_with_rollback(
        &mut self,
        previous_mr: ChainNet,
        previous_mr_book: ChannelBook,
    ) -> Result<()> {
        if previous_mr.units().len() != self.mt.units().len() {
            return Err(CoreError::BranchMismatch {
                reason: format!(
                    "rolled-back M_R has {} units, M_T has {}",
                    previous_mr.units().len(),
                    self.mt.units().len()
                ),
            });
        }
        let maps = self.mt_book.alignment_into(&previous_mr_book)?;
        self.align = maps
            .into_iter()
            .zip(previous_mr.units().iter().zip(self.mt.units()))
            .map(|(map, (ru, tu))| {
                // Identity merges need no gather.
                let identity = ru.out_channels() == tu.out_channels()
                    && map.iter().enumerate().all(|(i, &p)| i == p);
                (!identity).then_some(map)
            })
            .collect();
        self.mr = previous_mr;
        self.mr_book = previous_mr_book;
        self.finalized = true;
        self.qmr = None;
        Ok(())
    }

    /// Recomputes alignment maps after both books changed in lockstep (used
    /// by pruning, where the branches stay width-identical and alignment
    /// stays identity).
    pub fn reset_identity_alignment(&mut self) {
        self.align = vec![None; self.unit_count()];
    }

    /// Full two-branch forward pass; the logits come from `M_T`'s head.
    ///
    /// # Errors
    ///
    /// Returns shape errors if the branches were rewritten inconsistently.
    #[allow(clippy::needless_range_loop)] // i indexes two branches and the align table
    pub fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        if mode.is_train() {
            // Training forwards update BN running statistics, which the int8
            // snapshot bakes in.
            self.qmr = None;
        }
        let n = self.unit_count();
        let mut merged_outs: Vec<Tensor> = Vec::with_capacity(n);
        let mut r = input.clone();
        let mut m = input.clone();
        for i in 0..n {
            let r_out = self.mr.units_mut()[i].forward(&r, None, mode)?;
            if mode.is_train() {
                self.r_dims[i] = r_out.dims().to_vec();
            }
            let skip = self.mt.units()[i]
                .spec()
                .skip_from
                .map(|j| merged_outs[j].clone());
            let t_out = self.mt.units_mut()[i].forward(&m, skip.as_ref(), mode)?;
            let r_sel = match &self.align[i] {
                None => r_out.clone(),
                Some(idx) => gather_channels(&r_out, idx)?,
            };
            let merged =
                self.backend
                    .imp()
                    .add(&t_out, &r_sel)
                    .map_err(|e| CoreError::BranchMismatch {
                        reason: format!("merge at unit {i} failed: {e}"),
                    })?;
            merged_outs.push(merged.clone());
            r = r_out;
            m = merged;
        }
        Ok(self.mt.head_mut().forward(&m, mode)?)
    }

    /// The unfused reference inference: [`TwoBranchModel::forward`] in
    /// eval mode, with BatchNorm unfolded and each merge a separate add.
    /// Nothing deployed runs it; the parity suites check
    /// [`TwoBranchModel::predict_fused`] (and with it split inference and
    /// serving) against it within 1e-4.
    ///
    /// # Errors
    ///
    /// See [`TwoBranchModel::forward`].
    pub fn predict(&mut self, input: &Tensor) -> Result<Tensor> {
        self.forward(input, Mode::Eval)
    }

    /// Inference fast path: both branches run BN-folded packed convolutions
    /// with fused bias/ReLU epilogues, `M_T` additionally fuses the
    /// two-branch merge into its conv epilogue whenever its unit has no
    /// pooling, and pooling runs index-free. `M_T`'s half is the same
    /// per-unit step that split inference and serving run, so those
    /// answers equal this one bit for bit. Equivalent to
    /// [`TwoBranchModel::predict`] up to f32 rounding of the folded
    /// weights.
    ///
    /// # Errors
    ///
    /// See [`TwoBranchModel::forward`].
    pub fn predict_fused(&mut self, input: &Tensor) -> Result<Tensor> {
        let mut step = SecureForward::new(&mut self.mt, &self.align, input.clone());
        let mut r = input.clone();
        for unit in self.mr.units_mut() {
            r = unit.forward_inference(&r, None, None)?;
            step.push(&r)?;
        }
        Ok(step.finish()?.0)
    }

    /// Inference with the int8 rich branch: `M_R` runs as a quantized
    /// [`QuantBranch`] snapshot (built lazily, invalidated by anything that
    /// can change `M_R`), while the secure branch and the merge stay in
    /// f32 exactly as in [`TwoBranchModel::predict_fused`]. The TEE-side
    /// arithmetic is untouched — only the attacker-visible branch trades
    /// precision for speed.
    ///
    /// # Errors
    ///
    /// See [`TwoBranchModel::forward`].
    pub fn predict_int8(&mut self, input: &Tensor) -> Result<Tensor> {
        self.quantized_branch()?;
        let q = self.qmr.as_ref().expect("quantized branch just ensured");
        let mut step = SecureForward::new(&mut self.mt, &self.align, input.clone());
        let mut r = input.clone();
        for i in 0..q.units().len() {
            r = q.forward_unit(i, &r, None)?;
            step.push(&r)?;
        }
        Ok(step.finish()?.0)
    }

    /// The quantized `M_R` snapshot used by [`TwoBranchModel::predict_int8`],
    /// building it if absent (e.g. to report its size).
    ///
    /// # Errors
    ///
    /// Returns shape errors for inconsistent layer state.
    pub fn quantized_branch(&mut self) -> Result<&QuantBranch> {
        if self.qmr.is_none() {
            self.qmr = Some(QuantBranch::from_chain(&self.mr)?);
        }
        Ok(self.qmr.as_ref().expect("just ensured"))
    }

    /// Lends `M_T` and the merge alignment to a [`SecureForward`], for
    /// split inference, whose `M_R` feature maps arrive over a channel.
    pub(crate) fn secure_forward(&mut self, input: Tensor) -> SecureForward<'_> {
        SecureForward::new(&mut self.mt, &self.align, input)
    }

    /// Backward pass through both branches, accumulating parameter
    /// gradients. Must follow a training-mode [`TwoBranchModel::forward`].
    ///
    /// # Errors
    ///
    /// Returns missing-cache errors when no training forward preceded it.
    pub fn backward(&mut self, grad_logits: &Tensor) -> Result<()> {
        let n = self.unit_count();
        let g_features = self.mt.head_mut().backward(grad_logits)?;
        let mut gm: Vec<Option<Tensor>> = vec![None; n];
        let mut gr: Vec<Option<Tensor>> = vec![None; n];
        gm[n - 1] = Some(g_features);
        for i in (0..n).rev() {
            let g_merged = gm[i]
                .take()
                .expect("merged output of every unit feeds the chain");
            // The merge `m_i = t_i + select(r_i)` routes the gradient to both
            // branches.
            match &self.align[i] {
                None => accumulate(&mut gr[i], g_merged.clone(), self.backend)?,
                Some(idx) => {
                    if self.r_dims[i].is_empty() {
                        return Err(CoreError::Nn(tbnet_nn::NnError::MissingForwardCache {
                            layer: "TwoBranchModel",
                        }));
                    }
                    let mut z = Tensor::zeros(&self.r_dims[i]);
                    scatter_add_channels(&mut z, &g_merged, idx)?;
                    accumulate(&mut gr[i], z, self.backend)?;
                }
            }
            let ug = self.mt.units_mut()[i].backward(&g_merged)?;
            if let (Some(j), Some(gs)) = (self.mt.units()[i].spec().skip_from, ug.grad_skip) {
                accumulate(&mut gm[j], gs, self.backend)?;
            }
            if i > 0 {
                accumulate(&mut gm[i - 1], ug.grad_input, self.backend)?;
            }
            let g_r = gr[i]
                .take()
                .expect("every M_R output feeds the merge, so a gradient exists");
            let rg = self.mr.units_mut()[i].backward(&g_r)?;
            if i > 0 {
                accumulate(&mut gr[i - 1], rg.grad_input, self.backend)?;
            }
        }
        Ok(())
    }

    /// Visits the trainable parameters of both branches.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        // Visitors (optimizer steps) may mutate M_R's weights.
        self.qmr = None;
        Layer::visit_params(&mut self.mr, f);
        Layer::visit_params(&mut self.mt, f);
        // M_R's classifier head is *not* part of the TBNet computation graph
        // (the prediction comes from M_T), so its stale victim weights are
        // excluded from optimization on purpose: mr.visit_params covers it,
        // but it never receives gradients, and SGD with zero gradient and no
        // weight decay on the bias leaves only the weight-decay shrinkage.
    }

    /// Clears gradients in both branches.
    pub fn zero_grad(&mut self) {
        Layer::zero_grad(&mut self.mr);
        Layer::zero_grad(&mut self.mt);
    }

    /// Total trainable parameters across both branches.
    pub fn param_count(&mut self) -> usize {
        let mut count = 0;
        self.visit_params(&mut |p| count += p.numel());
        count
    }
}

fn accumulate(slot: &mut Option<Tensor>, grad: Tensor, kind: BackendKind) -> Result<()> {
    match slot {
        Some(existing) => {
            kind.imp().add_assign(existing, &grad)?;
        }
        None => *slot = Some(grad),
    }
    Ok(())
}

/// `M_T`'s half of one split inference (paper Fig. 1), fed one `M_R` unit
/// output at a time. [`TwoBranchModel::predict_fused`],
/// [`TwoBranchModel::predict_int8`], [`crate::deploy::run_split_inference`]
/// and the serving runtime's TEE consumer all run it, so the merge has one
/// implementation.
pub(crate) struct SecureForward<'a> {
    mt: &'a mut ChainNet,
    align: &'a [Option<Vec<usize>>],
    /// One entry per merged unit: its output if a later unit reads it as a
    /// skip.
    kept: Vec<Option<Tensor>>,
    /// The merged stream: the input of the next `M_T` unit.
    m: Tensor,
    tee: Duration,
    merge: Duration,
}

impl<'a> SecureForward<'a> {
    /// Starts `M_T` on the network `input`.
    pub(crate) fn new(
        mt: &'a mut ChainNet,
        align: &'a [Option<Vec<usize>>],
        input: Tensor,
    ) -> Self {
        SecureForward {
            kept: Vec::with_capacity(mt.units().len()),
            mt,
            align,
            m: input,
            tee: Duration::ZERO,
            merge: Duration::ZERO,
        }
    }

    /// Merges the next unit's `M_R` output: gathers the aligned channels
    /// (step ⑥, timed as merge), then runs `M_T`'s unit with the merge
    /// fused into its epilogue (timed as tee).
    ///
    /// # Errors
    ///
    /// Alignment errors from the gather, and [`CoreError::BranchMismatch`]
    /// when `r_out` disagrees with the unit's geometry.
    pub(crate) fn push(&mut self, r_out: &Tensor) -> Result<()> {
        let i = self.kept.len();
        let t = Instant::now();
        let gathered = match &self.align[i] {
            None => None,
            Some(idx) => Some(gather_channels(r_out, idx)?),
        };
        self.merge += t.elapsed();
        let skip = self.mt.units()[i].spec().skip_from;
        let skip = skip.and_then(|j| self.kept[j].as_ref());
        let merge = gathered.as_ref().unwrap_or(r_out);
        let t = Instant::now();
        let merged = self.mt.units_mut()[i]
            .forward_inference(&self.m, skip, Some(merge))
            .map_err(|e| CoreError::BranchMismatch {
                reason: format!("merge at unit {i} failed: {e}"),
            })?;
        self.tee += t.elapsed();
        let is_skip_source = self
            .mt
            .units()
            .iter()
            .any(|u| u.spec().skip_from == Some(i));
        self.kept.push(is_skip_source.then(|| merged.clone()));
        self.m = merged;
        Ok(())
    }

    /// Runs `M_T`'s head (timed as tee) and returns the logits with the tee
    /// and merge clocks.
    ///
    /// # Errors
    ///
    /// Returns shape errors when fewer units were pushed than `M_T` has.
    pub(crate) fn finish(self) -> Result<(Tensor, Duration, Duration)> {
        let t = Instant::now();
        let logits = self.mt.head_mut().forward(&self.m, Mode::Eval)?;
        Ok((logits, self.tee + t.elapsed(), self.merge))
    }
}

/// Per-shard scratch of the two-branch data-parallel step: both branches'
/// activation chains of the split forward and the pending per-unit
/// gradients of the split backward (mirrors [`TwoBranchModel::forward`] /
/// [`TwoBranchModel::backward`] exactly).
#[derive(Debug, Default)]
pub struct TwoBranchScratch {
    /// Conv output of the branch unit currently in flight (forward).
    conv_out: Option<Tensor>,
    /// `M_R` unit outputs (pre-merge), for the merge gather and the
    /// scatter shapes of the merge backward.
    outs_r: Vec<Tensor>,
    /// Merged unit outputs (`M_T`'s stream), for `M_T` skip connections.
    outs_m: Vec<Tensor>,
    /// Pre-activation gradient of the branch unit currently in flight
    /// (backward).
    grad_pre: Option<Tensor>,
    /// Pending skip gradient of the `M_T` unit currently in flight.
    grad_skip: Option<Tensor>,
    /// Per-unit merged-output gradients.
    gm: Vec<Option<Tensor>>,
    /// Per-unit `M_R`-output gradients.
    gr: Vec<Option<Tensor>>,
}

/// The two-branch model exposes **two sync points per unit** to the
/// data-parallel trainer — `M_R`'s BatchNorm (even points) then `M_T`'s
/// (odd points) — in the exact execution order of the sequential
/// interleaved forward. The backward schedule revisits them in reverse, so
/// every phase reproduces [`TwoBranchModel::backward`]'s accumulation
/// order: the merge routes each unit's gradient to both branches, `M_T`'s
/// unit backward feeds the merged stream (and its skip sources), and
/// `M_R`'s backward feeds its private stream.
impl DpTrainable for TwoBranchModel {
    type Scratch = TwoBranchScratch;

    fn make_scratch(&self) -> TwoBranchScratch {
        let n = self.unit_count();
        TwoBranchScratch {
            conv_out: None,
            outs_r: Vec::with_capacity(n),
            outs_m: Vec::with_capacity(n),
            grad_pre: None,
            grad_skip: None,
            gm: vec![None; n],
            gr: vec![None; n],
        }
    }

    fn sync_points(&self) -> usize {
        2 * self.unit_count()
    }

    fn sync_widths(&self) -> Vec<usize> {
        // Sync point 2i is M_R unit i's BN, 2i+1 is M_T unit i's — report
        // the live width of each in that exact order.
        self.mr()
            .units()
            .iter()
            .zip(self.mt().units())
            .flat_map(|(ru, tu)| [ru.out_channels(), tu.out_channels()])
            .collect()
    }

    fn backend_kind(&self) -> BackendKind {
        self.backend
    }

    fn zero_grad(&mut self) {
        TwoBranchModel::zero_grad(self);
    }

    fn forward_sync(
        &mut self,
        point: usize,
        shard: &mut DpShard<TwoBranchScratch>,
    ) -> Result<(Tensor, Tensor, usize)> {
        // Data-parallel training mutates BN statistics outside
        // `TwoBranchModel::forward`, so the int8 snapshot goes stale here
        // too.
        self.qmr = None;
        let DpShard { batch, scratch, .. } = shard;
        let i = point / 2;
        let conv_out = if point.is_multiple_of(2) {
            // M_R unit i: consumes M_R's private stream (skips stripped).
            let input = if i == 0 {
                &batch.images
            } else {
                &scratch.outs_r[i - 1]
            };
            self.mr.units_mut()[i].forward_conv(input, Mode::Train)?
        } else {
            // M_T unit i: consumes the merged stream.
            let input = if i == 0 {
                &batch.images
            } else {
                &scratch.outs_m[i - 1]
            };
            self.mt.units_mut()[i].forward_conv(input, Mode::Train)?
        };
        let (mean, var) = ops::channel_mean_var(&conv_out)?;
        let count = conv_out.dim(0) * conv_out.dim(2) * conv_out.dim(3);
        scratch.conv_out = Some(conv_out);
        Ok((mean, var, count))
    }

    fn forward_resume(
        &mut self,
        point: usize,
        shard: &mut DpShard<TwoBranchScratch>,
        mean: &Tensor,
        var: &Tensor,
    ) -> Result<()> {
        let scratch = &mut shard.scratch;
        let conv_out = scratch.conv_out.take().expect("set by the conv phase");
        let i = point / 2;
        if point.is_multiple_of(2) {
            let r_out = self.mr.units_mut()[i].forward_from_conv(
                &conv_out,
                None,
                Mode::Train,
                Some((mean, var)),
            )?;
            scratch.outs_r.push(r_out);
        } else {
            let skip = self.mt.units()[i]
                .spec()
                .skip_from
                .map(|j| scratch.outs_m[j].clone());
            let t_out = self.mt.units_mut()[i].forward_from_conv(
                &conv_out,
                skip.as_ref(),
                Mode::Train,
                Some((mean, var)),
            )?;
            let r_sel = match &self.align[i] {
                None => scratch.outs_r[i].clone(),
                Some(idx) => gather_channels(&scratch.outs_r[i], idx)?,
            };
            let merged =
                self.backend
                    .imp()
                    .add(&t_out, &r_sel)
                    .map_err(|e| CoreError::BranchMismatch {
                        reason: format!("merge at unit {i} failed: {e}"),
                    })?;
            scratch.outs_m.push(merged);
        }
        Ok(())
    }

    fn loss_phase(
        &mut self,
        shard: &mut DpShard<TwoBranchScratch>,
        global_batch: usize,
    ) -> Result<()> {
        let n = self.unit_count();
        let logits = self
            .mt
            .head_mut()
            .forward(&shard.scratch.outs_m[n - 1], Mode::Train)?;
        let out = softmax_cross_entropy_scaled(&logits, &shard.batch.labels, global_batch)?;
        shard.acc = accuracy(&logits, &shard.batch.labels)?;
        shard.loss = out.loss;
        let g = self.mt.head_mut().backward(&out.grad)?;
        shard.scratch.gm[n - 1] = Some(g);
        Ok(())
    }

    fn backward_reduce(
        &mut self,
        point: usize,
        shard: &mut DpShard<TwoBranchScratch>,
    ) -> Result<(Tensor, Tensor, usize)> {
        let scratch = &mut shard.scratch;
        let i = point / 2;
        let halfway = if point % 2 == 1 {
            // M_T unit i. First route the merged gradient to M_R (the merge
            // `m_i = t_i + select(r_i)` feeds both branches), exactly like
            // the sequential backward does before M_T's unit backward.
            let g_merged = scratch.gm[i]
                .take()
                .expect("merged output of every unit feeds the chain");
            match &self.align[i] {
                None => accumulate_grad(&mut scratch.gr[i], g_merged.clone(), self.backend)?,
                Some(idx) => {
                    let mut z = Tensor::zeros(scratch.outs_r[i].dims());
                    scatter_add_channels(&mut z, &g_merged, idx)?;
                    accumulate_grad(&mut scratch.gr[i], z, self.backend)?;
                }
            }
            self.mt.units_mut()[i].backward_to_bn(&g_merged)?
        } else {
            // M_R unit i: consumes the routed + downstream gradient.
            let g_r = scratch.gr[i]
                .take()
                .expect("every M_R output feeds the merge, so a gradient exists");
            self.mr.units_mut()[i].backward_to_bn(&g_r)?
        };
        let count = halfway.grad_pre.dim(0) * halfway.grad_pre.dim(2) * halfway.grad_pre.dim(3);
        scratch.grad_pre = Some(halfway.grad_pre);
        scratch.grad_skip = halfway.grad_skip;
        Ok((halfway.sum_dy, halfway.sum_dy_xhat, count))
    }

    fn backward_resume(
        &mut self,
        point: usize,
        shard: &mut DpShard<TwoBranchScratch>,
        sum_dy: &Tensor,
        sum_dy_xhat: &Tensor,
        total: usize,
    ) -> Result<()> {
        let scratch = &mut shard.scratch;
        let grad_pre = scratch.grad_pre.take().expect("set by the reduce phase");
        let i = point / 2;
        if point % 2 == 1 {
            let grad_input =
                self.mt.units_mut()[i].backward_from_bn(&grad_pre, sum_dy, sum_dy_xhat, total)?;
            if let (Some(j), Some(gs)) = (
                self.mt.units()[i].spec().skip_from,
                scratch.grad_skip.take(),
            ) {
                accumulate_grad(&mut scratch.gm[j], gs, self.backend)?;
            }
            if i > 0 {
                accumulate_grad(&mut scratch.gm[i - 1], grad_input, self.backend)?;
            }
        } else {
            let grad_input =
                self.mr.units_mut()[i].backward_from_bn(&grad_pre, sum_dy, sum_dy_xhat, total)?;
            if i > 0 {
                accumulate_grad(&mut scratch.gr[i - 1], grad_input, self.backend)?;
            }
        }
        Ok(())
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        TwoBranchModel::visit_params(self, f);
    }

    fn penalty(&mut self, lambda: f32) -> f32 {
        // The g(γ_R + γ_T) term of Eq. 1 separates across branches.
        crate::transfer::apply_branch_sparsity(&mut self.mr, lambda)
            + crate::transfer::apply_branch_sparsity(&mut self.mt, lambda)
    }

    fn optimizer_step(&mut self, sgd: &Sgd) {
        // The branches step as two separate layer trees, like the
        // sequential reference (per-parameter updates are independent, so
        // this equals one combined step).
        sgd.step(&mut self.mr as &mut dyn Layer);
        sgd.step(&mut self.mt as &mut dyn Layer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tbnet_models::{resnet, vgg, ChainNet};
    use tbnet_nn::loss::softmax_cross_entropy;
    use tbnet_tensor::init;

    fn tiny_victim(rng: &mut StdRng) -> ChainNet {
        let spec = vgg::vgg_from_stages("v", &[(4, 1), (6, 1)], 3, 2, (8, 8));
        ChainNet::from_spec(&spec, rng).unwrap()
    }

    #[test]
    fn construction_clones_victim_into_mr() {
        let mut rng = StdRng::seed_from_u64(0);
        let victim = tiny_victim(&mut rng);
        let tb = TwoBranchModel::from_victim(&victim, &mut rng).unwrap();
        assert_eq!(tb.unit_count(), 2);
        assert!(!tb.is_finalized());
        // M_R weights equal the victim's.
        assert_eq!(
            tb.mr().units()[0].conv().weight().value.as_slice(),
            victim.units()[0].conv().weight().value.as_slice()
        );
        // M_T weights are fresh (different from the victim's).
        assert_ne!(
            tb.mt().units()[0].conv().weight().value.as_slice(),
            victim.units()[0].conv().weight().value.as_slice()
        );
    }

    #[test]
    fn resnet_mr_loses_skips_mt_keeps_them() {
        let mut rng = StdRng::seed_from_u64(1);
        let spec = resnet::resnet20_tiny(4, 3, (16, 16));
        let victim = ChainNet::from_spec(&spec, &mut rng).unwrap();
        let tb = TwoBranchModel::from_victim(&victim, &mut rng).unwrap();
        assert!(tb.mr().units().iter().all(|u| u.spec().skip_from.is_none()));
        assert!(tb.mt().units().iter().any(|u| u.spec().skip_from.is_some()));
    }

    #[test]
    fn forward_produces_logits() {
        let mut rng = StdRng::seed_from_u64(2);
        let victim = tiny_victim(&mut rng);
        let mut tb = TwoBranchModel::from_victim(&victim, &mut rng).unwrap();
        let x = init::randn(&[3, 2, 8, 8], 1.0, &mut rng);
        let logits = tb.predict(&x).unwrap();
        assert_eq!(logits.dims(), &[3, 3]);
        assert!(logits.all_finite());
    }

    #[test]
    fn backward_gradients_match_numerical() {
        let mut rng = StdRng::seed_from_u64(3);
        let victim = tiny_victim(&mut rng);
        let mut tb = TwoBranchModel::from_victim(&victim, &mut rng).unwrap();
        let x = init::randn(&[2, 2, 8, 8], 1.0, &mut rng);
        let targets = [0usize, 2];

        tb.zero_grad();
        let logits = tb.forward(&x, Mode::Train).unwrap();
        let out = softmax_cross_entropy(&logits, &targets).unwrap();
        tb.backward(&out.grad).unwrap();

        let eps = 1e-2f32;
        // Check one M_T conv weight and one M_R conv weight.
        let loss_with = |tb: &mut TwoBranchModel, x: &Tensor| {
            let logits = tb.forward(x, Mode::Train).unwrap();
            softmax_cross_entropy(&logits, &targets).unwrap().loss
        };
        for branch in ["mt", "mr"] {
            for &idx in &[0usize, 7] {
                let ana = {
                    let net = if branch == "mt" { tb.mt() } else { tb.mr() };
                    net.units()[0].conv().weight().grad.as_slice()[idx]
                };
                let mut plus = tb.clone();
                {
                    let net = if branch == "mt" {
                        plus.mt_mut()
                    } else {
                        plus.mr_mut()
                    };
                    net.units_mut()[0]
                        .conv_mut()
                        .weight_mut()
                        .value
                        .as_mut_slice()[idx] += eps;
                }
                let mut minus = tb.clone();
                {
                    let net = if branch == "mt" {
                        minus.mt_mut()
                    } else {
                        minus.mr_mut()
                    };
                    net.units_mut()[0]
                        .conv_mut()
                        .weight_mut()
                        .value
                        .as_mut_slice()[idx] -= eps;
                }
                let num = (loss_with(&mut plus, &x) - loss_with(&mut minus, &x)) / (2.0 * eps);
                assert!(
                    (num - ana).abs() < 0.02 + 0.05 * ana.abs().max(num.abs()),
                    "{branch} weight[{idx}]: num {num} vs ana {ana}"
                );
            }
        }
    }

    #[test]
    fn mr_gradients_flow_through_merge() {
        // After one forward/backward, M_R conv weights must receive non-zero
        // gradient even though the loss reads M_T's head.
        let mut rng = StdRng::seed_from_u64(4);
        let victim = tiny_victim(&mut rng);
        let mut tb = TwoBranchModel::from_victim(&victim, &mut rng).unwrap();
        let x = init::randn(&[4, 2, 8, 8], 1.0, &mut rng);
        tb.zero_grad();
        let logits = tb.forward(&x, Mode::Train).unwrap();
        let out = softmax_cross_entropy(&logits, &[0, 1, 2, 0]).unwrap();
        tb.backward(&out.grad).unwrap();
        let g = tb.mr().units()[0].conv().weight().grad.l1_norm();
        assert!(g > 0.0, "M_R received no gradient");
        // The victim classifier inside M_R must receive no gradient: it is
        // outside the TBNet graph.
        assert_eq!(tb.mr().head().linear().weight().grad.l1_norm(), 0.0);
    }

    #[test]
    fn extracted_branch_is_detached_copy() {
        let mut rng = StdRng::seed_from_u64(5);
        let victim = tiny_victim(&mut rng);
        let tb = TwoBranchModel::from_victim(&victim, &mut rng).unwrap();
        let mut stolen = tb.extract_unsecured_branch();
        stolen.units_mut()[0]
            .conv_mut()
            .weight_mut()
            .value
            .fill(0.0);
        // Original unaffected.
        assert!(tb.mr().units()[0].conv().weight().value.l1_norm() > 0.0);
    }

    #[test]
    fn rollback_finalization_sets_alignment() {
        let mut rng = StdRng::seed_from_u64(6);
        let victim = tiny_victim(&mut rng);
        let mut tb = TwoBranchModel::from_victim(&victim, &mut rng).unwrap();
        // Simulate one pruning iteration on M_T only via the books: M_T keeps
        // channels {0,2,3} of unit 0 while the rolled-back M_R keeps all 4.
        let prev_mr = tb.mr().clone();
        let prev_book = tb.mr_book().clone();
        tb.mt_book_mut()
            .apply_mask(0, &[true, false, true, true])
            .unwrap();
        // (The actual weight slicing is pruning's job; alignment math only
        // needs the books and unit counts.)
        tb.finalize_with_rollback(prev_mr, prev_book).unwrap();
        assert!(tb.is_finalized());
        assert_eq!(tb.align()[0].as_ref().unwrap(), &vec![0, 2, 3]);
        assert!(tb.align()[1].is_none()); // unchanged unit stays identity
    }

    #[test]
    fn rollback_rejects_non_subset_books() {
        let mut rng = StdRng::seed_from_u64(7);
        let victim = tiny_victim(&mut rng);
        let mut tb = TwoBranchModel::from_victim(&victim, &mut rng).unwrap();
        let prev_mr = tb.mr().clone();
        let mut prev_book = tb.mr_book().clone();
        // M_R book lost channel 0, M_T book still has it.
        prev_book.apply_mask(0, &[false, true, true, true]).unwrap();
        assert!(tb.finalize_with_rollback(prev_mr, prev_book).is_err());
    }

    #[test]
    fn param_visitation_covers_both_branches() {
        let mut rng = StdRng::seed_from_u64(8);
        let victim = tiny_victim(&mut rng);
        let victim_params = {
            let mut v = victim.clone();
            v.param_count()
        };
        let mut tb = TwoBranchModel::from_victim(&victim, &mut rng).unwrap();
        assert_eq!(tb.param_count(), 2 * victim_params);
    }
}

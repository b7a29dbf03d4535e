//! Neural-network layers with hand-written backpropagation for the TBNet
//! reproduction.
//!
//! The TBNet pipeline (DAC 2024) trains networks three times over — victim
//! training, knowledge transfer into the two-branch substitution model, and
//! the fine-tune step of every pruning iteration — so this crate provides a
//! complete, dependency-free training stack:
//!
//! * [`Layer`] — the forward/backward contract, with parameter visitation for
//!   optimizers ([`Conv2d`], [`BatchNorm2d`], [`Linear`], [`Relu`],
//!   [`MaxPool2d`], [`GlobalAvgPool`], [`Flatten`], [`Sequential`]);
//! * [`loss`] — softmax cross-entropy plus the L1 sparsity penalty on
//!   BatchNorm scales from Eq. 1 of the paper;
//! * [`optim`] — SGD with momentum and weight decay, and the step-decay
//!   learning-rate schedule the paper uses;
//! * [`metrics`] — classification accuracy.
//!
//! # Compute backends
//!
//! Every layer dispatches its kernels through a
//! [`tbnet_tensor::Backend`]: new layers start on the process-wide default
//! (see `tbnet_tensor::backend::global_kind`), and
//! [`Layer::set_backend`] re-pins a layer — containers like [`Sequential`]
//! propagate the choice to their children. Pinning a model to
//! `BackendKind::Naive` reproduces the single-threaded reference
//! arithmetic; `BackendKind::Parallel` runs the blocked/threaded kernels.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), tbnet_nn::NnError> {
//! use rand::SeedableRng;
//! use tbnet_nn::{Layer, Linear, Mode, Relu, Sequential};
//! use tbnet_tensor::Tensor;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut net = Sequential::new(vec![
//!     Box::new(Linear::new(4, 8, &mut rng)),
//!     Box::new(Relu::new()),
//!     Box::new(Linear::new(8, 2, &mut rng)),
//! ]);
//! let x = Tensor::zeros(&[3, 4]);
//! let logits = net.forward(&x, Mode::Eval)?;
//! assert_eq!(logits.dims(), &[3, 2]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod layer;
mod param;
mod sequential;

pub mod layers;
pub mod loss;
pub mod metrics;
pub mod optim;

pub use error::NnError;
pub use layer::{Layer, Mode};
pub use layers::{
    merge_batch_stats, BatchNorm2d, Conv2d, Flatten, GlobalAvgPool, Linear, MaxPool2d, Relu,
};
pub use param::Param;
pub use sequential::Sequential;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, NnError>;

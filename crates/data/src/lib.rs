//! Dataset substrate for the TBNet reproduction.
//!
//! The paper evaluates on CIFAR-10 and CIFAR-100. Those archives are not
//! available in this offline environment, so this crate provides
//! **procedurally generated CIFAR-like datasets** ([`SyntheticCifar`]): each
//! class owns a smooth random prototype image, and samples are produced by
//! jittering, shifting and noising the prototype. A small CNN can learn the
//! class structure — and, crucially for the TBNet experiments, accuracy
//! degrades smoothly with less capacity or less training data, which is the
//! property every table and figure of the paper measures.
//!
//! # Example
//!
//! ```
//! use tbnet_data::{DatasetKind, SyntheticCifar};
//!
//! let data = SyntheticCifar::generate(DatasetKind::Cifar10Like.config().with_train_per_class(8));
//! assert_eq!(data.train().classes(), 10);
//! assert_eq!(data.train().len(), 80);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod augment;
mod dataset;
mod loader;
mod synthetic;

pub use augment::Augment;
pub use dataset::{Batch, ImageDataset};
pub use loader::BatchPlan;
pub use synthetic::{DatasetKind, SyntheticCifar, SyntheticConfig};

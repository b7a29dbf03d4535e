use std::error::Error;
use std::fmt;

use tbnet_models::ModelError;
use tbnet_nn::NnError;
use tbnet_tee::TeeError;
use tbnet_tensor::TensorError;

/// Error type for the TBNet core pipeline.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// A tensor kernel failed.
    Tensor(TensorError),
    /// A layer operation failed.
    Nn(NnError),
    /// A model construction/validation failed.
    Model(ModelError),
    /// The TEE substrate reported an error.
    Tee(TeeError),
    /// The two branches are structurally incompatible.
    BranchMismatch {
        /// Description of the incompatibility.
        reason: String,
    },
    /// A channel-alignment map is inconsistent with the tensors it indexes.
    AlignmentError {
        /// Unit index where alignment failed.
        unit: usize,
        /// Description of the inconsistency.
        reason: String,
    },
    /// Pruning could not proceed (e.g. every channel would be removed).
    PruningError {
        /// Description of the failure.
        reason: String,
    },
    /// Saving or loading a checkpoint failed.
    PersistError {
        /// Description of the I/O or encoding failure.
        reason: String,
    },
    /// The pipeline was configured inconsistently.
    InvalidConfig {
        /// Name of the offending field.
        field: &'static str,
        /// Description of the constraint.
        reason: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Tensor(e) => write!(f, "tensor failure: {e}"),
            CoreError::Nn(e) => write!(f, "layer failure: {e}"),
            CoreError::Model(e) => write!(f, "model failure: {e}"),
            CoreError::Tee(e) => write!(f, "tee substrate failure: {e}"),
            CoreError::BranchMismatch { reason } => {
                write!(f, "two-branch structure mismatch: {reason}")
            }
            CoreError::AlignmentError { unit, reason } => {
                write!(f, "channel alignment failed at unit {unit}: {reason}")
            }
            CoreError::PruningError { reason } => write!(f, "pruning failed: {reason}"),
            CoreError::PersistError { reason } => write!(f, "persistence failed: {reason}"),
            CoreError::InvalidConfig { field, reason } => {
                write!(f, "invalid pipeline config `{field}`: {reason}")
            }
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Tensor(e) => Some(e),
            CoreError::Nn(e) => Some(e),
            CoreError::Model(e) => Some(e),
            CoreError::Tee(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for CoreError {
    fn from(e: TensorError) -> Self {
        CoreError::Tensor(e)
    }
}

impl From<NnError> for CoreError {
    fn from(e: NnError) -> Self {
        CoreError::Nn(e)
    }
}

impl From<ModelError> for CoreError {
    fn from(e: ModelError) -> Self {
        CoreError::Model(e)
    }
}

impl From<TeeError> for CoreError {
    fn from(e: TeeError) -> Self {
        CoreError::Tee(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_sources() {
        let e = CoreError::from(TensorError::ZeroSizedParameter { name: "k" });
        assert!(Error::source(&e).is_some());
        let e = CoreError::from(NnError::MissingForwardCache { layer: "x" });
        assert!(Error::source(&e).is_some());
        let e = CoreError::from(ModelError::InvalidSpec { reason: "r".into() });
        assert!(Error::source(&e).is_some());
        let e = CoreError::from(TeeError::UnknownHandle { id: 3 });
        assert!(Error::source(&e).is_some());
        let e = CoreError::BranchMismatch {
            reason: "units".into(),
        };
        assert!(e.to_string().contains("units"));
        assert!(Error::source(&e).is_none());
    }

    #[test]
    fn is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}

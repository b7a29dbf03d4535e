use std::error::Error;
use std::fmt;

use tbnet_models::ModelError;

/// Error type for the simulated TEE substrate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TeeError {
    /// A model spec could not be priced (invalid geometry).
    Model(ModelError),
    /// An allocation would exceed the secure-memory budget.
    SecureMemoryExhausted {
        /// Bytes requested by the allocation.
        requested: usize,
        /// Bytes still available under the budget.
        available: usize,
    },
    /// A handle referenced a model that is not loaded in the secure world.
    UnknownHandle {
        /// The stale handle id.
        id: u64,
    },
    /// The cost model was configured with a non-positive rate.
    InvalidCostModel {
        /// Name of the offending field.
        field: &'static str,
    },
}

impl fmt::Display for TeeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TeeError::Model(e) => write!(f, "model error: {e}"),
            TeeError::SecureMemoryExhausted {
                requested,
                available,
            } => write!(
                f,
                "secure memory exhausted: requested {requested} bytes, {available} available"
            ),
            TeeError::UnknownHandle { id } => write!(f, "unknown secure-world handle {id}"),
            TeeError::InvalidCostModel { field } => {
                write!(f, "cost model field `{field}` must be positive")
            }
        }
    }
}

impl Error for TeeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TeeError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for TeeError {
    fn from(e: ModelError) -> Self {
        TeeError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = TeeError::SecureMemoryExhausted {
            requested: 1024,
            available: 512,
        };
        assert!(e.to_string().contains("1024"));
        assert!(Error::source(&e).is_none());
        let e = TeeError::Model(ModelError::InvalidSpec { reason: "x".into() });
        assert!(Error::source(&e).is_some());
    }

    #[test]
    fn is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TeeError>();
    }
}

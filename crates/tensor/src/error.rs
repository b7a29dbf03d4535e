use std::error::Error;
use std::fmt;

/// Error type for every fallible operation in `tbnet-tensor`.
///
/// The variants carry enough context to diagnose shape bugs in the network
/// wiring without a debugger, which matters because the TBNet pruning pipeline
/// rewrites channel counts at runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TensorError {
    /// Two tensors (or a tensor and an expectation) disagreed on shape.
    ShapeMismatch {
        /// Shape the operation expected.
        expected: Vec<usize>,
        /// Shape it actually received.
        got: Vec<usize>,
        /// Name of the operation that failed.
        op: &'static str,
    },
    /// The number of elements does not match the requested shape.
    LengthMismatch {
        /// Number of elements implied by the shape.
        expected: usize,
        /// Number of elements provided.
        got: usize,
        /// Name of the operation that failed.
        op: &'static str,
    },
    /// A tensor had the wrong rank (number of dimensions).
    RankMismatch {
        /// Expected rank.
        expected: usize,
        /// Actual rank.
        got: usize,
        /// Name of the operation that failed.
        op: &'static str,
    },
    /// The inner dimensions of a matrix product disagree.
    MatmulDimMismatch {
        /// Columns of the left operand.
        lhs_cols: usize,
        /// Rows of the right operand.
        rhs_rows: usize,
    },
    /// A convolution/pooling geometry is impossible (e.g. kernel larger than
    /// the padded input).
    InvalidGeometry {
        /// Human-readable description of the inconsistency.
        reason: String,
    },
    /// A parameter (stride, kernel size, …) must be non-zero.
    ZeroSizedParameter {
        /// Name of the offending parameter.
        name: &'static str,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { expected, got, op } => write!(
                f,
                "shape mismatch in `{op}`: expected {expected:?}, got {got:?}"
            ),
            TensorError::LengthMismatch { expected, got, op } => write!(
                f,
                "length mismatch in `{op}`: shape implies {expected} elements, got {got}"
            ),
            TensorError::RankMismatch { expected, got, op } => write!(
                f,
                "rank mismatch in `{op}`: expected rank {expected}, got rank {got}"
            ),
            TensorError::MatmulDimMismatch { lhs_cols, rhs_rows } => write!(
                f,
                "matmul inner dimensions disagree: lhs has {lhs_cols} columns, rhs has {rhs_rows} rows"
            ),
            TensorError::InvalidGeometry { reason } => {
                write!(f, "invalid convolution/pooling geometry: {reason}")
            }
            TensorError::ZeroSizedParameter { name } => {
                write!(f, "parameter `{name}` must be non-zero")
            }
        }
    }
}

impl Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = TensorError::ShapeMismatch {
            expected: vec![2, 3],
            got: vec![3, 2],
            op: "add",
        };
        let text = err.to_string();
        assert!(text.contains("add"));
        assert!(text.contains("[2, 3]"));
        assert!(text.contains("[3, 2]"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }

    #[test]
    fn matmul_mismatch_message() {
        let err = TensorError::MatmulDimMismatch {
            lhs_cols: 4,
            rhs_rows: 5,
        };
        assert!(err.to_string().contains('4'));
        assert!(err.to_string().contains('5'));
    }
}

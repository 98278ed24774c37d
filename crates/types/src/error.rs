//! Parameter-validation errors shared across the workspace.

use core::fmt;

/// Errors produced while validating model parameters.
#[derive(Clone, Debug, PartialEq)]
pub enum ParamError {
    /// A parameter that must be a power of two was not.
    NotPowerOfTwo {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: u64,
    },
    /// A parameter that must be nonzero was zero.
    Zero {
        /// Parameter name.
        name: &'static str,
    },
    /// A parameter exceeded another that must bound it.
    OutOfRange {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: u64,
        /// Human-readable constraint, e.g. "must be <= V".
        constraint: &'static str,
    },
    /// `hmax` must divide `V` (Section 3 assumes it does).
    NotDivisible {
        /// Dividend name.
        dividend: &'static str,
        /// Divisor name.
        divisor: &'static str,
    },
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::NotPowerOfTwo { name, value } => {
                write!(f, "parameter `{name}` must be a power of two, got {value}")
            }
            ParamError::Zero { name } => write!(f, "parameter `{name}` must be nonzero"),
            ParamError::OutOfRange {
                name,
                value,
                constraint,
            } => write!(f, "parameter `{name}` = {value} out of range: {constraint}"),
            ParamError::NotDivisible { dividend, divisor } => {
                write!(f, "`{divisor}` must divide `{dividend}`")
            }
        }
    }
}

impl std::error::Error for ParamError {}

/// Result alias for parameter validation.
pub type Result<T> = core::result::Result<T, ParamError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_name_the_parameter() {
        let e = ParamError::NotPowerOfTwo {
            name: "h",
            value: 3,
        };
        assert!(e.to_string().contains('h'));
        assert!(e.to_string().contains('3'));

        let e = ParamError::Zero { name: "P" };
        assert!(e.to_string().contains('P'));

        let e = ParamError::OutOfRange {
            name: "l",
            value: 10,
            constraint: "must be <= P",
        };
        assert!(e.to_string().contains("must be <= P"));
    }

    #[test]
    fn error_trait_object_works() {
        let e: Box<dyn std::error::Error> = Box::new(ParamError::Zero { name: "V" });
        assert!(e.to_string().contains('V'));
    }
}

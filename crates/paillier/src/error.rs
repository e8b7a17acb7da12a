//! Error type for Paillier operations whose failure is data-dependent.

use std::fmt;

/// Errors surfaced by fallible Paillier operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PaillierError {
    /// Plaintext is outside the message space `Z_n`.
    MessageOutOfRange,
    /// Signed plaintext is outside `[-(n-1)/2, (n-1)/2]`.
    SignedMessageOutOfRange,
    /// Ciphertext value is outside `Z_{n²}` or shares a factor with `n`.
    InvalidCiphertext,
    /// Requested key size is below [`crate::MIN_KEY_BITS`].
    KeyTooSmall {
        /// Bits asked for (or received over the wire).
        requested: usize,
        /// The enforced floor, [`crate::MIN_KEY_BITS`].
        minimum: usize,
    },
    /// A packed-slot value needs more bits than the slot layout provides
    /// (it would bleed into the neighboring slot).
    SlotOverflow {
        /// The layout's slot width.
        slot_bits: usize,
        /// Bits the offending value actually needs.
        value_bits: usize,
    },
    /// A packed word vector cannot carry the expected number of slots.
    SlotCountMismatch {
        /// Words received.
        words: usize,
        /// Words the layout requires for the slot count.
        expected: usize,
    },
}

impl fmt::Display for PaillierError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PaillierError::MessageOutOfRange => {
                write!(f, "plaintext is not in the message space Z_n")
            }
            PaillierError::SignedMessageOutOfRange => {
                write!(f, "signed plaintext is outside [-(n-1)/2, (n-1)/2]")
            }
            PaillierError::InvalidCiphertext => {
                write!(f, "ciphertext is not a valid element of Z*_{{n²}}")
            }
            PaillierError::KeyTooSmall { requested, minimum } => {
                write!(
                    f,
                    "key size {requested} bits is below the minimum {minimum}"
                )
            }
            PaillierError::SlotOverflow {
                slot_bits,
                value_bits,
            } => {
                write!(
                    f,
                    "packed value needs {value_bits} bits but slots are {slot_bits} bits wide"
                )
            }
            PaillierError::SlotCountMismatch { words, expected } => {
                write!(
                    f,
                    "packed response has {words} words but the layout requires {expected}"
                )
            }
        }
    }
}

impl std::error::Error for PaillierError {}

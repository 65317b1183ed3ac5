//! Core identifier, value and error types for the *Security through Redundant
//! Data Diversity* (DSN 2008) reproduction.
//!
//! Every other crate in the workspace builds on the newtypes defined here:
//! user and group identifiers ([`Uid`], [`Gid`]), virtual addresses
//! ([`VirtAddr`]), kernel object handles ([`Fd`], [`Pid`], [`VariantId`]),
//! machine words ([`Word`]) and error numbers ([`Errno`]).
//!
//! The types are deliberately small, `Copy`, and strongly distinguished from
//! one another (the newtype pattern) so that a UID can never be accidentally
//! confused with an address or a plain integer anywhere in the monitor,
//! kernel, or transformation pipeline — a property the paper's transformation
//! itself relies on ("the `uid_t` type is never used to hold non-UID values").
//!
//! # Example
//!
//! ```
//! use nvariant_types::{Uid, VirtAddr, Word};
//!
//! let root = Uid::ROOT;
//! assert!(root.is_root());
//!
//! let reexpressed = Uid::new(root.as_u32() ^ 0x7FFF_FFFF);
//! assert_ne!(root, reexpressed);
//!
//! let addr = VirtAddr::new(0x0000_2000);
//! assert!(!addr.high_bit_set());
//! assert!(addr.with_high_bit().high_bit_set());
//!
//! let w = Word::from_u32(42);
//! assert_eq!(w.as_i32(), 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod errno;
pub mod fnv;
pub mod hex;
mod ids;
pub mod lines;
mod uid;
mod word;

pub use addr::VirtAddr;
pub use errno::Errno;
pub use fnv::{fnv1a_64, Fnv1a};
pub use ids::{ConnId, Fd, Pid, Port, VariantId};
pub use uid::{Gid, Uid};
pub use word::Word;

//! Root package holding the workspace examples and integration tests.

#![forbid(unsafe_code)]

pub mod golden;

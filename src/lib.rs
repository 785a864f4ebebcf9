//! Root package holding the workspace examples and integration tests.

pub mod golden;

//! Regenerates the theorem lower-bound table: every adversarial
//! construction replayed against its scripted OPT.
//!
//! ```text
//! lower_bounds [name ...]
//! ```
//!
//! Without arguments, all constructions run. `lower_bounds --help` lists the
//! valid names.

use std::process::ExitCode;

use smbm_bench::{all_lower_bounds, lower_bound_by_name, render_table, LOWER_BOUND_NAMES};

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if names.iter().any(|n| n == "--help" || n == "-h") {
        println!("usage: lower_bounds [{}]", LOWER_BOUND_NAMES.join("|"));
        return ExitCode::SUCCESS;
    }
    let reports = if names.is_empty() {
        match all_lower_bounds() {
            Ok(r) => r,
            Err(e) => {
                eprintln!("replay failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let mut reports = Vec::new();
        for name in &names {
            match lower_bound_by_name(name) {
                Some(Ok(r)) => reports.push(r),
                Some(Err(e)) => {
                    eprintln!("{name} failed: {e}");
                    return ExitCode::FAILURE;
                }
                None => {
                    eprintln!(
                        "unknown construction {name:?}; valid: {}",
                        LOWER_BOUND_NAMES.join(", ")
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
        reports
    };
    print!("{}", render_table(&reports));
    ExitCode::SUCCESS
}

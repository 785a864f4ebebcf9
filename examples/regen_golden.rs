//! Regenerates the tables pinned in `tests/golden.rs`.
//!
//! Run with `cargo run --release --example regen_golden` after an
//! *intentional* behaviour change (tie-break fix, sampler swap, ...) and
//! paste the printed tables into the test, noting the regeneration in the
//! commit message. Each row is `(policy, score, every Counters field,
//! transmitted per port)`.

use smbm_repro::golden::{combined_rows, value_rows, work_rows, GoldenRow, Setting};

fn print_table(title: &str, rows: &[GoldenRow]) {
    println!("{title}:");
    for row in rows {
        println!("        {}", row.literal());
    }
}

fn main() {
    for setting in [Setting::Plain, Setting::Stressed] {
        print_table(&format!("work model, {setting:?}"), &work_rows(setting));
        print_table(&format!("value model, {setting:?}"), &value_rows(setting));
        print_table(
            &format!("combined model, {setting:?}"),
            &combined_rows(setting),
        );
    }
}

//! Regenerates the panels of the paper's Fig. 5 as CSV on stdout.
//!
//! ```text
//! fig5 [--panel N] [--scale smoke|default|paper] [--seed S] [--repeats R]
//!      [--jobs N]            # cap sweep worker threads, nested rosters included (default: all cores)
//!      [--gnuplot-dir DIR]   # also write panelN.csv + panelN.gp files
//!      [--metrics-dir DIR]   # also write panelN.POLICY.json metric sidecars
//! ```
//!
//! Without `--panel`, all nine panels are printed in order.

use std::process::ExitCode;

use smbm_bench::{fig5_block, Panel, PanelScale, FIG5_DEFAULT_SEED};

fn usage() -> &'static str {
    "usage: fig5 [--panel 1..9] [--scale smoke|default|paper] [--seed N] [--repeats R] [--jobs N] [--gnuplot-dir DIR] [--metrics-dir DIR]"
}

fn main() -> ExitCode {
    let mut panel: Option<u8> = None;
    let mut scale = PanelScale::Default;
    let mut seed = FIG5_DEFAULT_SEED;
    let mut repeats = 1u32;
    let mut jobs: Option<usize> = None;
    let mut gnuplot_dir: Option<String> = None;
    let mut metrics_dir: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--panel" => {
                let Some(v) = args.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("{}", usage());
                    return ExitCode::FAILURE;
                };
                panel = Some(v);
            }
            "--scale" => match args.next().as_deref() {
                Some("smoke") => scale = PanelScale::Smoke,
                Some("default") => scale = PanelScale::Default,
                Some("paper") => scale = PanelScale::Paper,
                _ => {
                    eprintln!("{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--seed" => {
                let Some(v) = args.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("{}", usage());
                    return ExitCode::FAILURE;
                };
                seed = v;
            }
            "--repeats" => {
                let Some(v) = args.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("{}", usage());
                    return ExitCode::FAILURE;
                };
                if v == 0 {
                    eprintln!("--repeats must be at least 1");
                    return ExitCode::FAILURE;
                }
                repeats = v;
            }
            "--jobs" => {
                let Some(v) = args.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("{}", usage());
                    return ExitCode::FAILURE;
                };
                if v == 0 {
                    eprintln!("--jobs must be at least 1");
                    return ExitCode::FAILURE;
                }
                jobs = Some(v);
            }
            "--gnuplot-dir" => {
                let Some(v) = args.next() else {
                    eprintln!("{}", usage());
                    return ExitCode::FAILURE;
                };
                gnuplot_dir = Some(v);
            }
            "--metrics-dir" => {
                let Some(v) = args.next() else {
                    eprintln!("{}", usage());
                    return ExitCode::FAILURE;
                };
                metrics_dir = Some(v);
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument {other:?}\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
    }
    let panels: Vec<Panel> = match panel {
        Some(n) => match Panel::new(n) {
            Some(p) => vec![p],
            None => {
                eprintln!("panel must be 1..9\n{}", usage());
                return ExitCode::FAILURE;
            }
        },
        None => Panel::all().collect(),
    };
    for p in panels {
        let (series, _spread) =
            match smbm_bench::run_panel_averaged_with_jobs(p, scale, seed, repeats, jobs) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("panel {} failed: {e}", p.number());
                    return ExitCode::FAILURE;
                }
            };
        print!("{}", fig5_block(p, scale, seed, repeats, &series));
        if let Some(dir) = &gnuplot_dir {
            let csv = smbm_sim::series_to_csv(p.x_label(), &series);
            let base = format!("{dir}/panel{}", p.number());
            let gp = smbm_sim::series_to_gnuplot(
                p.caption(),
                p.x_label(),
                &format!("panel{}.csv", p.number()),
                &series,
            );
            if let Err(e) = std::fs::create_dir_all(dir)
                .and_then(|_| std::fs::write(format!("{base}.csv"), &csv))
                .and_then(|_| std::fs::write(format!("{base}.gp"), &gp))
            {
                eprintln!("failed to write gnuplot files: {e}");
                return ExitCode::FAILURE;
            }
        }
        if let Some(dir) = &metrics_dir {
            let metrics = match smbm_bench::panel_point_metrics(p, scale, seed) {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("panel {} metrics failed: {e}", p.number());
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| {
                for (policy, json) in &metrics {
                    let path = format!("{dir}/panel{}.{policy}.json", p.number());
                    std::fs::write(&path, format!("{json}\n"))?;
                    println!("# metrics written to {path}");
                }
                Ok(())
            }) {
                eprintln!("failed to write metrics files: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

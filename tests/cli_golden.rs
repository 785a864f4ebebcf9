//! Pins the `smbm` command-line output byte for byte: the `*-run` roster
//! tables, `bounds`, `trace-gen`, the lockstep `serve` replay in both wire
//! models, and the error text of unknown policies, models and mixes and of
//! a trace whose port a `u32` cannot hold.
//!
//! Each `$ smbm ...` block of `tests/cli_golden.txt` is that command's
//! stdout (or `error: ` and its one-line message), with the wall-time
//! `throughput=` line of `serve` left out. A `serve` block reads the trace
//! named after `<`: the `trace-gen` output above it, the value trace built
//! by [`value_trace`], or [`WIDE_PORT_TRACE`]. If a change moves the output
//! on purpose, the failing run writes its transcript next to the test
//! binary's scratch files (the path is in the panic message); copy it over
//! the pinned file and say why in the commit.

use smbm_cli::{execute, Args};
use smbm_traffic::{MmppScenario, PortMix, ValueMix};

/// The commands, in transcript order. `Some(stdin)` names the trace fed to
/// a `serve` replay.
const CASES: &[(&str, Option<&str>)] = &[
    ("work-run --k 4 --buffer 16 --slots 3000 --sources 8", None),
    (
        "work-run --policies lwd,LQD,GREEDY,NHDT-W --speedup 2 --slots 2000 --seed 3",
        None,
    ),
    (
        "value-run --ports 4 --buffer 16 --slots 2000 --mix uniform",
        None,
    ),
    (
        "value-run --ports 4 --buffer 16 --slots 2000 --mix port --max-value 9",
        None,
    ),
    (
        "value-run --slots 1500 --policies MRD,nest,MRD-STRICT",
        None,
    ),
    ("combined-run --k 4 --buffer 16 --slots 2000", None),
    (
        "combined-run --slots 1500 --mix port --speedup 2 --sources 20",
        None,
    ),
    ("bounds", None),
    ("trace-gen --k 4 --buffer 16 --slots 200 --sources 6", None),
    ("serve --model work --k 4 --buffer 16", Some("work")),
    (
        "serve --model work --policy nhst --k 4 --buffer 16 --speedup 2",
        Some("work"),
    ),
    ("serve --model value --ports 4 --buffer 16", Some("value")),
    (
        "serve --model value --policy lqd --ports 4 --buffer 8",
        Some("value"),
    ),
    ("work-run --policies LWD,ZZZ --slots 10", None),
    ("value-run --policies ZZZ --slots 10", None),
    ("combined-run --policies ZZZ --slots 10", None),
    ("value-run --mix zipf", None),
    ("work-run --k 4 --buffer 2", None),
    ("value-run --ports 0", None),
    ("serve --model work --policy MRD", Some("work")),
    ("serve --model value --policy LWD", Some("value")),
    ("serve --model combined", Some("work")),
    ("serve --model work", Some("wide-port")),
    ("loadgen --model value --policy LWD", None),
    ("loadgen --model combined --policy MRD", None),
    ("loadgen --model bogus", None),
    ("loadgen --ports 8 --buffer 4", None),
    ("serve --listen 127.0.0.1:0 --model bogus", None),
    ("serve --listen 127.0.0.1:0 --model combined", None),
    (
        "serve --listen 127.0.0.1:0 --model value --policy LWD",
        None,
    ),
    ("netgen --targets 127.0.0.1:9 --model combined", None),
    ("netgen --targets 127.0.0.1:9 --model bogus", None),
];

/// A trace naming port 2^32 (one-based), past the `u32` port field.
const WIDE_PORT_TRACE: &str = "4294967296:1\n";

/// The value-model trace the value `serve` cases replay.
fn value_trace() -> String {
    MmppScenario {
        sources: 6,
        slots: 200,
        seed: 9,
        ..MmppScenario::default()
    }
    .value_trace(4, &PortMix::Uniform, &ValueMix::Uniform { max: 8 })
    .expect("valid scenario")
    .to_text()
}

fn smbm(command: &str, stdin: &str) -> Result<String, String> {
    let args =
        Args::parse(command.split_whitespace().map(str::to_owned)).map_err(|e| e.to_string())?;
    execute(&args, stdin)
}

fn transcript() -> String {
    let value = value_trace();
    let mut work = String::new();
    let mut out = String::new();
    for &(command, stdin) in CASES {
        let input = match stdin {
            Some("work") => work.as_str(),
            Some("wide-port") => WIDE_PORT_TRACE,
            Some(_) => value.as_str(),
            None => "",
        };
        out.push_str("$ smbm ");
        out.push_str(command);
        if let Some(name) = stdin {
            out.push_str(" < ");
            out.push_str(name);
        }
        out.push('\n');
        match smbm(command, input) {
            Ok(stdout) => {
                if command.starts_with("trace-gen") {
                    work = stdout.clone();
                }
                for line in stdout.lines().filter(|l| !l.starts_with("throughput=")) {
                    out.push_str(line);
                    out.push('\n');
                }
            }
            Err(e) => {
                out.push_str("error: ");
                out.push_str(&e);
                out.push('\n');
            }
        }
    }
    out
}

#[test]
fn cli_output_is_byte_identical() {
    let got = transcript();
    let pinned = include_str!("cli_golden.txt");
    if got != pinned {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_golden.txt");
        std::fs::write(&path, &got).expect("write the actual transcript");
        for (i, (g, w)) in got.lines().zip(pinned.lines()).enumerate() {
            assert_eq!(
                g,
                w,
                "tests/cli_golden.txt line {} differs; actual transcript in {}",
                i + 1,
                path.display()
            );
        }
        panic!(
            "tests/cli_golden.txt differs in length; actual transcript in {}",
            path.display()
        );
    }
}

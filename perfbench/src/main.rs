//! The LYCOS benchmark: one command, three seeded workloads.
//!
//! ```text
//! lycos_perfbench --workload <sweep|edit-loop|serve-mix> --seed <n>
//!                 --seconds <s> --trace <0|1> --lycos <path to the lycos binary>
//! ```
//!
//! * `sweep` — a closed loop of cold `lycos best|pareto eigen <budget>
//!   --bound` processes over seeded budgets; every answer is checked
//!   against the exhaustive baseline.
//! * `edit-loop` — one designer on one keep-alive connection to
//!   `lycos serve`, editing and re-allocating the bundled programs;
//!   answers are checked against a store-less from-scratch build.
//! * `serve-mix` — an open loop of fresh connections: pings, stats,
//!   warm small `table1` requests and eigen deadline jobs, a few of them
//!   cancelled.
//!
//! Untraced runs print the end-to-end metrics; traced runs replay the
//! same ops in process, span by span, and print the per-layer metrics.
//! The last stdout line is the JSON result; a readable table goes to
//! stderr. `--write-expected` regenerates the sweep's expected file.

mod edit;
mod gen;
mod layers;
mod mix;
mod report;
mod rng;
mod stats;
mod sweep;
mod trace;
mod wire;

use report::{Report, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::time::Duration;

/// What every workload is handed.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub lycos: PathBuf,
}

impl Ctx {
    pub fn run_for(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

const USAGE: &str = "usage: lycos_perfbench --workload <sweep|edit-loop|serve-mix> --seed <n> \
                     --seconds <s> --trace <0|1> --lycos <path>\n       \
                     lycos_perfbench --write-expected";

fn parse_args() -> Result<Option<(String, Ctx)>, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced, mut lycos) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        if flag == "--write-expected" {
            return Ok(None);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad --seed `{value}`"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                })
            }
            "--lycos" => lycos = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let missing = |what: &str| format!("missing {what}");
    Ok(Some((
        workload.ok_or_else(|| missing("--workload"))?,
        Ctx {
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            traced: traced.ok_or_else(|| missing("--trace"))?,
            lycos: lycos.ok_or_else(|| missing("--lycos"))?,
        },
    )))
}

fn run() -> Result<(), String> {
    let Some((workload, ctx)) = parse_args().map_err(|e| format!("{e}\n{USAGE}"))? else {
        return sweep::write_expected();
    };
    if !ctx.lycos.is_file() {
        return Err(format!("no lycos binary at {}", ctx.lycos.display()));
    }
    std::fs::create_dir_all(wire::out_path("")).map_err(|e| format!(".bench_out: {e}"))?;
    let mut report = Report::default();
    match workload.as_str() {
        "sweep" => sweep::run(&ctx, &mut report)?,
        "edit-loop" => edit::run(&ctx, &mut report)?,
        "serve-mix" => mix::run(&ctx, &mut report)?,
        other => return Err(format!("unknown workload `{other}`\n{USAGE}")),
    }
    let table = if ctx.traced { PER_LAYER } else { END_TO_END };
    if ctx.traced {
        report.zero_unexercised(PER_LAYER);
    }
    eprintln!(
        "lycos_perfbench {workload} seed {} ({}):\n{}",
        ctx.seed,
        if ctx.traced { "traced" } else { "untraced" },
        report.human(table)
    );
    println!("{}", report.json(table)?);
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("lycos_perfbench: {e}");
        std::process::exit(1);
    }
}

//! `sweep`: a closed loop of cold `lycos best|pareto eigen <budget>
//! --bound --threads 2` processes over seeded budgets.

use crate::gen::{budget_grid, sweep_ops, SweepKind, SweepOp};
use crate::layers::{Engine, Replayer};
use crate::report::Report;
use crate::rng::Rng;
use crate::stats::{median, summarize};
use crate::Ctx;
use lycos::core::Restrictions;
use lycos::hwlib::{Area, HwLibrary};
use lycos::pace::{exhaustive_best, PaceConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The exhaustive baseline's answer at one budget.
#[derive(Clone, Debug, PartialEq)]
pub struct Expected {
    pub time: u64,
    pub speedup_pct: f64,
    pub allocation: String,
}

fn expected_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("expected/eigen_exhaustive.tsv")
}

/// Runs the paper's exhaustive baseline — a walk separate from the
/// bounded sweep under test — at each budget, on two threads.
fn exhaustive(budgets: &[u64]) -> Result<BTreeMap<u64, Expected>, String> {
    let eigen = lycos::apps::eigen();
    let bsbs = eigen.bsbs();
    let lib = HwLibrary::standard();
    let pace = PaceConfig::standard();
    let restr = Restrictions::from_asap(&bsbs, &lib).map_err(|e| e.to_string())?;
    let one = |budget: u64| -> Result<(u64, Expected), String> {
        let r = exhaustive_best(&bsbs, &lib, Area::new(budget), &restr, &pace, None)
            .map_err(|e| e.to_string())?;
        Ok((
            budget,
            Expected {
                time: r.best_partition.total_time.count(),
                speedup_pct: r.best_partition.speedup_pct(),
                allocation: r.best_allocation.display_with(&lib).to_string(),
            },
        ))
    };
    let (odd, even): (Vec<(usize, &u64)>, Vec<_>) =
        budgets.iter().enumerate().partition(|(i, _)| i % 2 == 1);
    std::thread::scope(|s| {
        let half = s.spawn(|| {
            odd.iter()
                .map(|(_, &b)| one(b))
                .collect::<Result<Vec<_>, _>>()
        });
        let mut all = even
            .iter()
            .map(|(_, &b)| one(b))
            .collect::<Result<Vec<_>, _>>()?;
        all.extend(half.join().map_err(|_| "exhaustive worker panicked")??);
        Ok(all.into_iter().collect())
    })
}

fn load_expected() -> Result<BTreeMap<u64, Expected>, String> {
    let path = expected_path();
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .map(|line| {
            let bad = || format!("bad expected line `{line}`");
            let mut f = line.splitn(4, '\t');
            let budget = f.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?;
            let time = f.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?;
            let speedup_pct = f.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?;
            let allocation = f.next().ok_or_else(bad)?.to_owned();
            Ok((
                budget,
                Expected {
                    time,
                    speedup_pct,
                    allocation,
                },
            ))
        })
        .collect()
}

/// The exhaustive answer at one budget, from the committed file or,
/// failing that, computed now.
pub fn expected_at(budget: u64) -> Result<Expected, String> {
    match load_expected()?.remove(&budget) {
        Some(e) => Ok(e),
        None => exhaustive(&[budget])?
            .remove(&budget)
            .ok_or_else(|| "no exhaustive answer".to_owned()),
    }
}

/// Regenerates the committed expected file over the whole budget grid.
pub fn write_expected() -> Result<(), String> {
    let all = exhaustive(&budget_grid())?;
    let mut out = String::from(
        "# exhaustive_best on eigen (standard library and PACE config), one line per sweep budget\n\
         # budget\tbest_time_cycles\tbest_speedup_pct\tbest_allocation\n",
    );
    for (b, e) in &all {
        out.push_str(&format!(
            "{b}\t{}\t{}\t{}\n",
            e.time, e.speedup_pct, e.allocation
        ));
    }
    std::fs::write(expected_path(), out).map_err(|e| e.to_string())
}

/// The expected answers for every grid budget up to the largest one
/// drawn. The committed file covers the whole grid, so every seed is
/// checked without recomputation; a budget missing from it is computed
/// here, before timing starts.
fn expected_for(ops: &[SweepOp]) -> Result<BTreeMap<u64, Expected>, String> {
    let mut expected = load_expected()?;
    let top = ops.iter().map(|o| o.budget).max().unwrap_or(0);
    let mut needed: Vec<u64> = budget_grid().into_iter().filter(|&b| b <= top).collect();
    needed.extend(ops.iter().map(|o| o.budget));
    needed.sort_unstable();
    needed.dedup();
    needed.retain(|b| !expected.contains_key(b));
    if !needed.is_empty() {
        eprintln!(
            "sweep: computing {} exhaustive reference(s) before timing",
            needed.len()
        );
        expected.extend(exhaustive(&needed)?);
    }
    Ok(expected)
}

fn field<'a>(stdout: &'a str, label: &str) -> Option<&'a str> {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(label))
        .map(str::trim)
}

fn check_best(stdout: &str, exp: &Expected) -> Result<(), String> {
    let allocation = field(stdout, "best       :").ok_or("no `best` line")?;
    let speedup = field(stdout, "speed-up   :").ok_or("no `speed-up` line")?;
    let want = format!("{:.0}%", exp.speedup_pct);
    if allocation != exp.allocation || speedup != want {
        return Err(format!(
            "best {allocation} at {speedup}, exhaustive {} at {want}",
            exp.allocation
        ));
    }
    Ok(())
}

/// A frontier is right when it is a strict staircase within the budget
/// and, at every grid budget it covers, its best point matches the
/// exhaustive winner's time there.
fn check_pareto(
    stdout: &str,
    budget: u64,
    expected: &BTreeMap<u64, Expected>,
) -> Result<(), String> {
    let mut lines = stdout.lines();
    if lines.next() != Some(lycos::explore::PARETO_CSV_HEADER) {
        return Err("pareto CSV header drifted".to_owned());
    }
    let mut points = Vec::new();
    for row in lines {
        let cells: Vec<&str> = row.split(',').collect();
        let num = |i: usize| cells.get(i).and_then(|c| c.parse::<u64>().ok());
        match (cells.first(), num(1), num(2)) {
            (Some(&"eigen"), Some(area), Some(time)) => points.push((area, time)),
            _ => return Err(format!("bad pareto row `{row}`")),
        }
    }
    if points.first().map(|p| p.0) != Some(0) {
        return Err("frontier does not start at the all-software point".to_owned());
    }
    if points
        .windows(2)
        .any(|w| w[1].0 <= w[0].0 || w[1].1 >= w[0].1)
        || points.iter().any(|p| p.0 > budget)
    {
        return Err(format!(
            "frontier is not a staircase within {budget}: {points:?}"
        ));
    }
    for (&g, exp) in expected.range(..=budget) {
        let best = points.iter().filter(|p| p.0 <= g).map(|p| p.1).min();
        if best != Some(exp.time) {
            return Err(format!(
                "frontier gives {best:?} cycles at {g}, exhaustive {}",
                exp.time
            ));
        }
    }
    Ok(())
}

/// One cold CLI call: its wall time and standard output.
fn cli(lycos: &Path, op: SweepOp) -> Result<(Duration, String), String> {
    let budget = op.budget.to_string();
    let mut args = vec![
        match op.kind {
            SweepKind::Best => "best",
            SweepKind::Pareto => "pareto",
        },
        "eigen",
        &budget,
        "--bound",
        "--threads",
        "2",
    ];
    if op.kind == SweepKind::Pareto {
        args.push("--csv");
    }
    let started = Instant::now();
    let out = Command::new(lycos)
        .args(&args)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("spawn lycos: {e}"))?;
    let wall = started.elapsed();
    if !out.status.success() {
        return Err(format!(
            "lycos {} exited {}: {}",
            args.join(" "),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok((wall, String::from_utf8_lossy(&out.stdout).into_owned()))
}

/// Peak resident set of the largest child process waited for so far.
fn children_peak_rss_mb() -> Result<f64, String> {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` matches the C `struct rusage` layout on 64-bit
    // Linux (two `timeval`s then fourteen `long`s), and `usage` is a
    // valid, exclusively borrowed value for the call to fill.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc != 0 {
        return Err("getrusage failed".to_owned());
    }
    Ok(usage.maxrss as f64 / 1024.0)
}

/// Mean seconds of one `best` plus one `pareto` call on a 2-core
/// machine: a run makes `--seconds / PAIR_SECONDS` calls of each kind,
/// a fixed set, so its figures do not depend on how many calls a slower
/// or faster machine would fit in the window.
const PAIR_SECONDS: f64 = 1.25;

struct Timed {
    op: SweepOp,
    wall_ms: f64,
}

/// Runs the calls in order, checking every answer.
fn closed_loop(
    ctx: &Ctx,
    ops: &[SweepOp],
    expected: &BTreeMap<u64, Expected>,
    report: &mut Report,
) -> (Vec<Timed>, f64) {
    let started = Instant::now();
    let mut timed = Vec::new();
    for &op in ops {
        report.attempted += 1;
        let checked = cli(&ctx.lycos, op).and_then(|(wall, stdout)| {
            match op.kind {
                SweepKind::Best => check_best(&stdout, &expected[&op.budget]),
                SweepKind::Pareto => check_pareto(&stdout, op.budget, expected),
            }
            .map(|()| wall)
        });
        match checked {
            Ok(wall) => timed.push(Timed {
                op,
                wall_ms: wall.as_secs_f64() * 1e3,
            }),
            Err(e) => report.fail(format!("{:?} at {}: {e}", op.kind, op.budget)),
        }
    }
    (timed, started.elapsed().as_secs_f64())
}

fn walls(timed: &[Timed], kind: SweepKind) -> Vec<f64> {
    timed
        .iter()
        .filter(|t| t.op.kind == kind)
        .map(|t| t.wall_ms)
        .collect()
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let window = if ctx.traced {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let ops = sweep_ops(
        &mut Rng::new(ctx.seed).fork(1),
        (window / PAIR_SECONDS).round().max(2.0) as usize,
    );
    let expected = expected_for(&ops)?;

    // Set-up: everything a call pays before its sweep — process start,
    // compiling the bundled apps, restrictions, artifact preparation and
    // the communication-memo fill — measured as a one-evaluation `best`
    // call at the lowest budget. One takes ~50 ms and jitters by a
    // fifth, so the median is taken over fifteen.
    let mut setups = Vec::new();
    for _ in 0..15 {
        let started = Instant::now();
        let out = Command::new(&ctx.lycos)
            .args([
                "best",
                "eigen",
                "9000",
                "--bound",
                "--threads",
                "2",
                "--limit",
                "1",
            ])
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("spawn lycos: {e}"))?;
        if !out.status.success() {
            return Err(format!("lycos best --limit 1 exited {}", out.status));
        }
        setups.push(started.elapsed().as_secs_f64());
    }

    let (timed, seconds) = closed_loop(ctx, &ops, &expected, report);
    let best = summarize(&walls(&timed, SweepKind::Best));
    let pareto = summarize(&walls(&timed, SweepKind::Pareto));
    for (label, s) in [("best", best), ("pareto", pareto)] {
        if let Some(s) = s {
            report.note(format!(
                "{label}_p50_ms {:.3}, {label}_tail_ms (p{}) {:.3} over {} calls",
                s.p50, s.tail_pct, s.tail, s.n
            ));
        }
    }
    if !ctx.traced {
        let (best, pareto) = (
            best.ok_or("no correct best call")?,
            pareto.ok_or("no correct pareto call")?,
        );
        report.set("setup_s", median(&setups));
        report.set("primary_p50_ms", best.p50);
        report.set("primary_tail_ms", best.tail);
        report.set("secondary_p50_ms", pareto.p50);
        report.set("secondary_tail_ms", pareto.tail);
        report.set("ops_per_s", timed.len() as f64 / seconds);
        report.set("peak_rss_mb", children_peak_rss_mb()?);
        return Ok(());
    }

    // Traced: replay the same calls in process, in the same order,
    // for the other half of the window.
    let eigen = lycos::apps::eigen();
    let mut replay = Replayer::new(true);
    let started = Instant::now();
    let mut searched = Vec::new();
    for (op, t) in timed.iter().enumerate() {
        if op > 1 && started.elapsed().as_secs_f64() >= window {
            break;
        }
        let engine = match t.op.kind {
            SweepKind::Best => Engine::Best,
            SweepKind::Pareto => Engine::Pareto,
        };
        let r = replay.cli_search(op as u64, &eigen, engine, t.op.budget)?;
        replay
            .samples
            .push("pace.search_share_pct", 100.0 * r.search_ms / t.wall_ms);
        searched.push((t, r.search_ms));
    }
    for (label, loose) in [("tight (< 12500)", false), ("loose (>= 12500)", true)] {
        let pairs: Vec<_> = searched
            .iter()
            .filter(|(t, _)| t.op.kind == SweepKind::Best && (t.op.budget >= 12_500) == loose)
            .collect();
        if !pairs.is_empty() {
            let wall = median(&pairs.iter().map(|(t, _)| t.wall_ms).collect::<Vec<_>>());
            let search = median(&pairs.iter().map(|(_, s)| *s).collect::<Vec<_>>());
            report.note(format!(
                "best at {label} budgets: pace.search_ms {search:.1} of best wall {wall:.1} ms ({:.0}%, {} calls)",
                100.0 * search / wall,
                pairs.len()
            ));
        }
    }
    // Tracing overhead: the cheapest replayed call, traced and not.
    let cheapest = searched
        .iter()
        .min_by(|a, b| a.0.wall_ms.total_cmp(&b.0.wall_ms))
        .map(|(t, _)| t.op)
        .ok_or("nothing replayed")?;
    let engine = if cheapest.kind == SweepKind::Best {
        Engine::Best
    } else {
        Engine::Pareto
    };
    let overhead = crate::layers::tracing_overhead_pct(|on| {
        let mut r = Replayer::new(on);
        r.cli_search(u64::MAX, &eigen, engine, cheapest.budget)
            .map(|x| x.op_ms)
    })?;
    replay.samples.push("trace.overhead_pct", overhead);
    replay
        .trace
        .write_tsv(&crate::wire::out_path(&format!(
            "trace-sweep-{}.tsv",
            ctx.seed
        )))
        .map_err(|e| e.to_string())?;
    replay.samples.publish(report);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_expected_file_covers_the_whole_grid() {
        let expected = load_expected().expect("committed expected file");
        for b in budget_grid() {
            let e = expected
                .get(&b)
                .unwrap_or_else(|| panic!("no expected answer at {b}"));
            assert!(e.time > 0 && e.allocation.starts_with('{'), "{b}: {e:?}");
        }
        // A larger budget never makes the exhaustive optimum slower.
        let times: Vec<u64> = expected.values().map(|e| e.time).collect();
        assert!(times.windows(2).all(|w| w[1] <= w[0]));
    }

    #[test]
    fn answer_checks_accept_the_truth_and_reject_drift() {
        let mut expected = BTreeMap::new();
        let e = |time, speedup_pct| Expected {
            time,
            speedup_pct,
            allocation: "{1×adder}".to_owned(),
        };
        expected.insert(100, e(90, 10.4));
        expected.insert(200, e(70, 40.6));
        let best = "space      : 9 allocations\nbest       : {1×adder}\nspeed-up   : 41%\n";
        assert!(check_best(best, &expected[&200]).is_ok());
        assert!(check_best(best, &expected[&100]).is_err());

        let header = lycos::explore::PARETO_CSV_HEADER;
        let good = format!(
            "{header}\neigen,0,100,0.00,0,0\neigen,80,90,11.11,1,3\neigen,150,70,42.86,2,9\n"
        );
        assert!(check_pareto(&good, 200, &expected).is_ok());
        let too_slow = good.replace("eigen,150,70", "eigen,150,75");
        assert!(check_pareto(&too_slow, 200, &expected).is_err());
        let over_budget = good.replace("eigen,150,70", "eigen,250,70");
        assert!(check_pareto(&over_budget, 200, &expected).is_err());
        let not_staircase = good.replace("eigen,80,90", "eigen,80,100");
        assert!(check_pareto(&not_staircase, 200, &expected).is_err());
    }
}

//! Seeded inputs: sweep budgets, the edit stream and the open-loop
//! arrival schedule. The program under test only ever sees what these
//! functions produce.

use crate::rng::Rng;

/// eigen budgets the sweep picks from: 9000..=16000 gates in steps of
/// 100, the range where the bounded sweep's cost swings hardest. The
/// committed expected file holds the exhaustive answer for each one.
pub fn budget_grid() -> Vec<u64> {
    (9_000..=16_000).step_by(100).collect()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepKind {
    Best,
    Pareto,
}

#[derive(Clone, Copy, Debug)]
pub struct SweepOp {
    pub kind: SweepKind,
    pub budget: u64,
}

/// `strata` `best` and as many `pareto` calls, in seeded order. Each
/// kind calls the middle grid budget of each of `strata` equal slices
/// of the grid, so every run covers the range evenly. The budgets are
/// not drawn within their slices: a call's time swings by up to ±20%
/// between neighbouring grid budgets, so the medians moved from seed to
/// seed with which neighbours were drawn. The seed sets the order of
/// the calls.
pub fn sweep_ops(rng: &mut Rng, strata: usize) -> Vec<SweepOp> {
    let grid = budget_grid();
    let strata = strata.clamp(1, grid.len());
    let mut ops = Vec::with_capacity(2 * strata);
    for i in 0..strata {
        let (lo, hi) = (i * grid.len() / strata, (i + 1) * grid.len() / strata);
        for kind in [SweepKind::Best, SweepKind::Pareto] {
            ops.push(SweepOp {
                kind,
                budget: grid[lo + (hi - lo) / 2],
            });
        }
    }
    rng.shuffle(&mut ops);
    ops
}

/// Binary operators an edit may swap, with what each becomes. Pairs
/// are symmetric so a long edit stream keeps each program's operator
/// mix (and so its search space) near where it started. Multiplies
/// and divides are left alone: swapping them in or out would grow or
/// shrink eigen's space by orders of magnitude mid-run.
const SWAPS: [(&str, &str); 7] = [
    (" + ", " - "),
    (" - ", " + "),
    (" & ", " | "),
    (" | ", " & "),
    (" ^ ", " | "),
    (" << ", " >> "),
    (" >> ", " << "),
];

/// Byte offsets (and swap index) of every swappable operator on the
/// right-hand side of an assignment line.
fn edit_sites(source: &str) -> Vec<(usize, usize)> {
    let mut sites = Vec::new();
    let mut offset = 0;
    for line in source.split_inclusive('\n') {
        let code = line.split("//").next().unwrap_or("");
        let trimmed = code.trim_start();
        let is_assignment = trimmed.trim_end().ends_with(';')
            && trimmed.split(" = ").next().is_some_and(|lhs| {
                !lhs.is_empty() && lhs.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
            });
        if is_assignment {
            let rhs_start = code.find(" = ").expect("assignment has ` = `") + 2;
            for (swap, (from, _)) in SWAPS.iter().enumerate() {
                for (at, _) in code[rhs_start..].match_indices(from) {
                    sites.push((offset + rhs_start + at, swap));
                }
            }
        }
        offset += line.len();
    }
    sites.sort_unstable();
    sites
}

/// Swaps one seeded binary operator on one assignment line, or `None`
/// when the source has nothing to swap.
pub fn swap_one_operator(source: &str, rng: &mut Rng) -> Option<String> {
    let sites = edit_sites(source);
    if sites.is_empty() {
        return None;
    }
    let (at, swap) = sites[rng.below(sites.len())];
    let (from, to) = SWAPS[swap];
    let mut out = String::with_capacity(source.len() + 1);
    out.push_str(&source[..at]);
    out.push_str(to);
    out.push_str(&source[at + from.len()..]);
    Some(out)
}

/// Share of edit-loop requests that resend the current version at
/// another budget (a store hit) instead of editing.
pub const RESEND_SHARE: f64 = 0.2;

/// One edit-loop request: a version of one bundled program at a
/// budget. `version` counts the edits applied to that program so far.
#[derive(Clone, Debug)]
pub struct EditRequest {
    pub app: usize,
    pub version: usize,
    pub source: std::sync::Arc<str>,
    pub budget: u64,
    pub resend: bool,
}

/// The designer's request stream over `originals` (source, budget,
/// weight): each request picks a program with probability proportional
/// to its weight, then edits its latest version, or —
/// for [`RESEND_SHARE`] of them — resends the latest version at a
/// budget 5–10% off its base. `compiles` vets every edit; rejected
/// edits are redrawn, so every request compiles.
pub fn edit_stream(
    rng: &mut Rng,
    originals: &[(&str, u64, u32)],
    count: usize,
    compiles: impl Fn(&str) -> bool,
) -> Vec<EditRequest> {
    let mut latest: Vec<(std::sync::Arc<str>, usize, u64)> = originals
        .iter()
        .map(|&(src, budget, _)| (std::sync::Arc::from(src), 0, budget))
        .collect();
    let total: u32 = originals.iter().map(|o| o.2).sum();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let mut ticket = rng.below(total as usize) as u32;
        let app = originals
            .iter()
            .position(|o| {
                let hit = ticket < o.2;
                ticket = ticket.saturating_sub(o.2);
                hit
            })
            .expect("tickets cover the weights");
        let base = originals[app].1;
        let (source, version, last_budget) = latest[app].clone();
        if rng.unit() < RESEND_SHARE {
            let factors = [0.90, 0.95, 1.05, 1.10];
            let mut budget = last_budget;
            while budget == last_budget || budget == base {
                let f = factors[rng.below(factors.len())];
                budget = ((base as f64 * f) / 10.0).round() as u64 * 10;
            }
            latest[app].2 = budget;
            out.push(EditRequest {
                app,
                version,
                source,
                budget,
                resend: true,
            });
            continue;
        }
        let Some(edited) = swap_one_operator(&source, rng) else {
            continue;
        };
        if !compiles(&edited) {
            continue;
        }
        let edited: std::sync::Arc<str> = std::sync::Arc::from(edited);
        latest[app] = (edited.clone(), version + 1, base);
        out.push(EditRequest {
            app,
            version: version + 1,
            source: edited,
            budget: base,
            resend: false,
        });
    }
    out
}

/// One serve-mix request kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MixOp {
    Ping,
    Stats,
    /// Warm `table1` of a small bundled app (index into `SMALL_APPS`).
    Small(usize),
    /// An eigen `deadline-ms` job.
    Deadline,
    /// An eigen `deadline-ms` job sent with `job=<id>`, cancelled by
    /// the following `Cancel(id)` arrival from the other connection.
    Cancellable(u64),
    Cancel(u64),
}

/// The small bundled apps of the serve mix.
pub const SMALL_APPS: [&str; 3] = ["hal", "man", "straight"];

/// Offset of a cancel after the job it names: long enough for the job
/// to be accepted, well inside its deadline.
pub const CANCEL_AFTER_S: f64 = 0.005;

#[derive(Clone, Copy, Debug)]
pub struct Arrival {
    /// Due time in seconds after the schedule starts.
    pub due: f64,
    pub op: MixOp,
}

/// The serve mix, each kind with its share of the arrivals: 12% ping,
/// 6% stats, 40% warm small `table1` (spread evenly over `SMALL_APPS`),
/// 40% eigen deadline jobs, 2% cancelled ones. Deadline jobs are the
/// scarcer class per second of sender time, so they get a large share.
const MIX: [(MixOp, f64); 5] = [
    (MixOp::Ping, 0.12),
    (MixOp::Stats, 0.06),
    (MixOp::Small(0), 0.40),
    (MixOp::Deadline, 0.40),
    (MixOp::Cancellable(0), 0.02),
];

/// A Poisson schedule of `rate` requests per second over `seconds`,
/// conditioned on its count: exactly `rate * seconds` arrivals, due at
/// sorted uniform draws over the window (which is how a Poisson
/// process's arrivals fall once their number is given), carrying the
/// mix's kinds in exact proportions in seeded order. Cancels are added
/// behind their jobs. Fixing the count and the proportions leaves the
/// arrival timing as the only thing a seed changes, so ops per second
/// and each class's sample count (and so its tail percentile) do not
/// move from seed to seed.
pub fn arrivals(rng: &mut Rng, rate: f64, seconds: f64) -> Vec<Arrival> {
    let n = (rate * seconds).round() as usize;
    let mut ops = Vec::with_capacity(n);
    for (op, share) in MIX {
        ops.extend(std::iter::repeat(op).take((share * n as f64).round() as usize));
    }
    ops.resize(n, MixOp::Small(0));
    rng.shuffle(&mut ops);
    let mut dues: Vec<f64> = (0..n).map(|_| rng.unit() * seconds).collect();
    dues.sort_by(f64::total_cmp);
    let mut out = Vec::with_capacity(n + n / 16);
    let (mut small, mut next_job) = (0, 1);
    for (due, op) in dues.into_iter().zip(ops) {
        let op = match op {
            MixOp::Small(_) => {
                small += 1;
                MixOp::Small((small - 1) % SMALL_APPS.len())
            }
            MixOp::Cancellable(_) => {
                next_job += 1;
                out.push(Arrival {
                    due: due + CANCEL_AFTER_S,
                    op: MixOp::Cancel(next_job),
                });
                MixOp::Cancellable(next_job)
            }
            op => op,
        };
        out.push(Arrival { due, op });
    }
    out.sort_by(|a, b| a.due.total_cmp(&b.due));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_ops_cover_every_stratum_for_both_kinds() {
        let grid = budget_grid();
        assert_eq!(
            (grid[0], *grid.last().unwrap(), grid.len()),
            (9_000, 16_000, 71)
        );
        let strata = 20;
        let ops = sweep_ops(&mut Rng::new(1), strata);
        for kind in [SweepKind::Best, SweepKind::Pareto] {
            let mut budgets: Vec<u64> = ops
                .iter()
                .filter(|o| o.kind == kind)
                .map(|o| o.budget)
                .collect();
            budgets.sort_unstable();
            assert_eq!(budgets.len(), strata);
            for (i, b) in budgets.iter().enumerate() {
                let lo = grid[i * grid.len() / strata];
                let hi = grid[(i + 1) * grid.len() / strata - 1];
                assert!((lo..=hi).contains(b), "{b} outside stratum {i}");
            }
        }
        let again = sweep_ops(&mut Rng::new(1), strata);
        assert_eq!(format!("{ops:?}"), format!("{again:?}"));
        let other = sweep_ops(&mut Rng::new(2), strata);
        assert_ne!(format!("{ops:?}"), format!("{other:?}"));
        let sorted = |ops: &[SweepOp]| {
            let mut calls: Vec<String> = ops.iter().map(|o| format!("{o:?}")).collect();
            calls.sort();
            calls
        };
        assert_eq!(
            sorted(&ops),
            sorted(&other),
            "the seed only orders the calls"
        );
    }

    #[test]
    fn an_edit_swaps_exactly_one_operator_on_an_assignment() {
        let src = "app t;\n// a - b in a comment\nx = a + b;\nloop l times 3 test (x < y) {\n  y = x - 1;\n}\n";
        let sites = edit_sites(src);
        assert_eq!(sites.len(), 2, "{sites:?}");
        for seed in 0..8 {
            let edited = swap_one_operator(src, &mut Rng::new(seed)).expect("has sites");
            let changed = src
                .lines()
                .zip(edited.lines())
                .filter(|(a, b)| a != b)
                .count();
            assert_eq!(changed, 1, "{edited}");
            assert!(edited.contains("x = a - b;") || edited.contains("y = x + 1;"));
        }
        assert!(swap_one_operator("app t;\nx = a * b;\n", &mut Rng::new(0)).is_none());
    }

    #[test]
    fn edit_stream_vets_every_edit_and_resends_a_minority() {
        let originals = [
            ("app t;\nx = a + b;\ny = x - c;\n", 1_000, 3),
            ("app u;\nz = a & b;\n", 500, 1),
        ];
        let reject_minus_first = |s: &str| !s.contains("x = a - b;\ny = x - c;");
        let stream = edit_stream(&mut Rng::new(5), &originals, 200, reject_minus_first);
        assert_eq!(stream.len(), 200);
        let resends = stream.iter().filter(|r| r.resend).count();
        assert!((20..80).contains(&resends), "{resends} resends");
        let first = stream.iter().filter(|r| r.app == 0).count();
        assert!(
            (130..170).contains(&first),
            "weight 3 of 4 drew {first} of 200"
        );
        for (i, r) in stream.iter().enumerate() {
            assert!(reject_minus_first(&r.source));
            let base = originals[r.app].1;
            if r.resend {
                assert_ne!(r.budget, base);
                assert!(r.budget % 10 == 0 && (base * 9 / 10..=base * 11 / 10).contains(&r.budget));
            } else {
                assert_eq!(r.budget, base);
                let earlier = stream[..i]
                    .iter()
                    .filter(|p| p.app == r.app && !p.resend)
                    .count();
                assert_eq!(r.version, earlier + 1);
            }
        }
    }

    #[test]
    fn arrivals_are_poisson_ordered_and_cancels_follow_their_jobs() {
        let a = arrivals(&mut Rng::new(9), 20.0, 200.0);
        let count = |keep: fn(MixOp) -> bool| a.iter().filter(|x| keep(x.op)).count();
        assert_eq!(count(|op| !matches!(op, MixOp::Cancel(_))), 4000);
        assert_eq!(count(|op| op == MixOp::Deadline), 1600);
        assert_eq!(count(|op| matches!(op, MixOp::Cancel(_))), 80);
        assert!(a
            .iter()
            .all(|x| (0.0..200.0 + CANCEL_AFTER_S).contains(&x.due)));
        let again = arrivals(&mut Rng::new(9), 20.0, 200.0);
        assert_eq!(format!("{a:?}"), format!("{again:?}"));
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        for x in &a {
            if let MixOp::Cancellable(id) = x.op {
                let cancel = a
                    .iter()
                    .find(|c| c.op == MixOp::Cancel(id))
                    .expect("cancel");
                assert!((cancel.due - x.due - CANCEL_AFTER_S).abs() < 1e-12);
            }
        }
    }
}

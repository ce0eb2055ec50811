//! `serve-mix`: an open loop of fresh connections — pings, stats, warm
//! small `table1` requests and eigen deadline jobs, a few cancelled —
//! sent on a seeded Poisson schedule by two sender threads.

use crate::gen::{arrivals, Arrival, MixOp, SMALL_APPS};
use crate::layers::{Program, Replayer};
use crate::report::Report;
use crate::rng::Rng;
use crate::stats::{median, summarize, OpenLoopSample};
use crate::wire::{self, Conn, Exchange, Status};
use crate::Ctx;
use lycos::explore::{table1_csv_row, Table1Options};
use lycos::pace::{ArtifactStore, SearchOptions};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Arrivals per second. A request on a fresh connection first waits
/// out the acceptor's poll (0–50 ms), so it holds its sender ~30 ms if
/// small and ~85 ms if a deadline job. At this rate each of the two
/// senders is under 20% busy and both are rarely busy at once: a
/// request that has to wait for a sender is sent just after the
/// acceptor's last wake and pays a whole poll on top, so at higher
/// rates the tails measure the generator's queue, not the server. The
/// workers, held ~55 ms per deadline job, stay under ~10% busy.
const RATE: f64 = 7.2;

/// The eigen job's anytime budget.
const DEADLINE_MS: u64 = 50;

/// Latency limits for `ops_per_s`: small requests, and deadline jobs
/// on top of their deadline.
const SMALL_LIMIT_MS: f64 = 100.0;
const DEADLINE_SLACK_MS: f64 = 100.0;

fn small_line(app: &str) -> String {
    format!("table1 app={app} bound format=csv")
}

fn deadline_line(job: Option<u64>) -> String {
    let job = job.map(|id| format!(" job={id}")).unwrap_or_default();
    format!(
        "table1 app=eigen bound no-warm limit=0 deadline-ms={DEADLINE_MS} timing format=csv{job}"
    )
}

/// The knobs of the small requests on a `--threads 2` server.
fn small_options() -> Table1Options {
    Table1Options::from_search_options(
        &SearchOptions::new()
            .threads(2)
            .limit(Some(200_000))
            .bound(true),
    )
}

fn deadline_options() -> Table1Options {
    Table1Options::from_search_options(
        &SearchOptions::new()
            .threads(2)
            .limit(None)
            .bound(true)
            .warm(false),
    )
}

/// What the answers must say, computed before timing.
struct References {
    /// Winner columns of each small app's row.
    small: Vec<Vec<String>>,
    /// eigen's deterministic columns (name through hw_fraction, and
    /// the space size): the heuristic does not depend on the search.
    eigen_fixed: Vec<(usize, String)>,
    /// The exhaustive optimum's speed-up at eigen's budget: no feasible
    /// best-so-far can beat it.
    eigen_optimum_pct: f64,
}

fn references() -> Result<References, String> {
    let apps = lycos::apps::all();
    let find = |name: &str| apps.iter().find(|a| a.name == name).expect("bundled app");
    let row =
        |app: &lycos::apps::BenchmarkApp, options: &Table1Options| -> Result<Vec<String>, String> {
            let row = lycos::Pipeline::for_app(app)
                .table1_row(options)
                .map_err(|e| e.to_string())?;
            Ok(table1_csv_row(&row, false)
                .split(',')
                .map(str::to_owned)
                .collect())
        };
    let small = SMALL_APPS
        .iter()
        .map(|name| row(find(name), &small_options()))
        .collect::<Result<Vec<_>, _>>()?;
    let eigen = find("eigen");
    let mut quick = deadline_options();
    quick.search_limit = Some(1);
    let cells = row(eigen, &quick)?;
    let eigen_fixed = [
        "name",
        "lines",
        "heuristic_su_pct",
        "iterated_su_pct",
        "size_fraction",
        "hw_fraction",
        "space_size",
    ]
    .iter()
    .map(|c| (wire::column(c), cells[wire::column(c)].clone()))
    .collect();
    let expected = crate::sweep::expected_at(eigen.area_budget)?;
    Ok(References {
        small,
        eigen_fixed,
        eigen_optimum_pct: expected.speedup_pct,
    })
}

/// Checks one eigen deadline answer: completion marker, the five-way
/// accounting identity, and a feasible winner.
fn check_deadline(x: &Exchange, refs: &References, cancellable: bool) -> Result<String, String> {
    if x.status != Status::Ok {
        return Err(format!("answered {:?}", x.status));
    }
    let cells = wire::table1_cells(&x.body)?;
    let cell = |name: &str| cells[wire::column(name)].as_str();
    let num = |name: &str| {
        cell(name)
            .parse::<u128>()
            .map_err(|_| format!("{name} = `{}`", cell(name)))
    };
    let completion = cell("completion").to_owned();
    let markers: &[&str] = if cancellable {
        &["deadline", "cancelled", "complete"]
    } else {
        &["deadline", "complete"]
    };
    if !markers.contains(&completion.as_str()) {
        return Err(format!("completion marker `{completion}`"));
    }
    if cell("truncated") != "false" {
        return Err("a limit=0 job reported a truncated window".to_owned());
    }
    let accounted = num("evaluated")? + num("skipped")? + num("bounded")? + num("unvisited")?;
    if accounted != num("space_size")? {
        return Err(format!(
            "accounting covers {accounted} of {} points",
            num("space_size")?
        ));
    }
    let best: f64 = cell("best_su_pct")
        .parse()
        .map_err(|_| "no best-so-far winner".to_owned())?;
    if !(0.0..=refs.eigen_optimum_pct + 0.005).contains(&best) {
        return Err(format!(
            "winner speed-up {best}% beats the {}% optimum",
            refs.eigen_optimum_pct
        ));
    }
    for (i, want) in &refs.eigen_fixed {
        if cells[*i] != *want {
            return Err(format!("column {i} is `{}`, expected `{want}`", cells[*i]));
        }
    }
    Ok(completion)
}

/// One sent arrival and how it went.
struct Done {
    index: usize,
    sample: OpenLoopSample,
    /// Request sent to answer read, on the wire.
    wire_ms: f64,
    ttfb_ms: f64,
    busy: bool,
    completion: Option<String>,
    /// For a cancel that landed: when its `ok` was read.
    cancel_landed: Option<f64>,
    error: Option<String>,
}

/// Sends one arrival on a fresh connection at its due time.
fn send(
    addr: &str,
    a: &Arrival,
    index: usize,
    t0: Instant,
    refs: &References,
    job_done: &[AtomicBool],
) -> Done {
    if let Some(wait) = (t0 + Duration::from_secs_f64(a.due)).checked_duration_since(Instant::now())
    {
        std::thread::sleep(wait);
    }
    let sent = t0.elapsed().as_secs_f64();
    let mut done = Done {
        index,
        sample: OpenLoopSample {
            due: a.due,
            sent,
            done: sent,
            answered: false,
        },
        wire_ms: 0.0,
        ttfb_ms: 0.0,
        busy: false,
        completion: None,
        cancel_landed: None,
        error: None,
    };
    let result = (|| -> Result<(), String> {
        let mut conn = Conn::open(addr).map_err(|e| format!("connect: {e}"))?;
        let line = match a.op {
            MixOp::Ping => "ping".to_owned(),
            MixOp::Stats => "stats".to_owned(),
            MixOp::Small(i) => small_line(SMALL_APPS[i]),
            MixOp::Deadline => deadline_line(None),
            MixOp::Cancellable(id) => deadline_line(Some(id)),
            MixOp::Cancel(id) => {
                // Retry until the job is registered; a job that already
                // answered makes the cancel moot, not wrong.
                loop {
                    let x = conn
                        .request(&format!("cancel {id}"))
                        .map_err(|e| format!("cancel: {e}"))?;
                    match x.status {
                        Status::Ok => {
                            done.cancel_landed = Some(t0.elapsed().as_secs_f64());
                            break;
                        }
                        Status::Err(_) if job_done[id as usize].load(Ordering::SeqCst) => break,
                        Status::Err(_) if t0.elapsed().as_secs_f64() - sent < 1.0 => {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        other => return Err(format!("cancel answered {other:?}")),
                    }
                }
                done.sample.done = t0.elapsed().as_secs_f64();
                return Ok(());
            }
        };
        let x = conn.request(&line).map_err(|e| format!("request: {e}"))?;
        done.sample.done = t0.elapsed().as_secs_f64();
        done.wire_ms = x.total.as_secs_f64() * 1e3;
        done.ttfb_ms = x.ttfb.as_secs_f64() * 1e3;
        if let Status::Busy(_) = x.status {
            done.busy = true;
            return Err("refused: busy".to_owned());
        }
        match a.op {
            MixOp::Ping if x.status == Status::Pong => Ok(()),
            MixOp::Stats if x.status == Status::Ok => wire::stats_counters(&x.body).map(drop),
            MixOp::Small(i) if x.status == Status::Ok => {
                let cells = wire::table1_cells(&x.body)?;
                let want = &refs.small[i];
                if wire::winner_cells(&cells) == wire::winner_cells(want) {
                    Ok(())
                } else {
                    Err(format!("winner columns {:?}", wire::winner_cells(&cells)))
                }
            }
            MixOp::Deadline | MixOp::Cancellable(_) => {
                done.completion = Some(check_deadline(
                    &x,
                    refs,
                    matches!(a.op, MixOp::Cancellable(_)),
                )?);
                Ok(())
            }
            _ => Err(format!("answered {:?}", x.status)),
        }
    })();
    if let MixOp::Cancellable(id) = a.op {
        job_done[id as usize].store(true, Ordering::SeqCst);
    }
    match result {
        Ok(()) => done.sample.answered = true,
        Err(e) => done.error = Some(e),
    }
    done
}

/// Runs the schedule with two sender threads, each holding at most one
/// connection at a time.
fn open_loop(addr: &str, schedule: &[Arrival], refs: &References) -> Vec<Done> {
    let next = AtomicUsize::new(0);
    let jobs = schedule
        .iter()
        .filter_map(|a| match a.op {
            MixOp::Cancellable(id) => Some(id as usize),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let job_done: Vec<AtomicBool> = (0..=jobs).map(|_| AtomicBool::new(false)).collect();
    let out = Mutex::new(Vec::with_capacity(schedule.len()));
    let t0 = Instant::now();
    let sender = || loop {
        let i = next.fetch_add(1, Ordering::SeqCst);
        let Some(a) = schedule.get(i) else { break };
        let done = send(addr, a, i, t0, refs, &job_done);
        out.lock().expect("no sender panicked").push(done);
    };
    std::thread::scope(|s| {
        let other = s.spawn(sender);
        sender();
        other.join().expect("sender thread");
    });
    let mut out = out.into_inner().expect("no sender panicked");
    out.sort_by_key(|d| d.index);
    out
}

/// Writes every arrival as one tab-separated line, times in ms from
/// the schedule's start: `op  due  sent  done  answered`.
fn write_samples(done: &[Done], schedule: &[Arrival], seed: u64) -> std::io::Result<()> {
    use std::io::Write;
    let path = wire::out_path(&format!("samples-serve-mix-{seed}.tsv"));
    std::fs::create_dir_all(path.parent().expect("in .bench_out"))?;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "op\tdue_ms\tsent_ms\tdone_ms\tanswered")?;
    for d in done {
        let s = &d.sample;
        writeln!(
            out,
            "{:?}\t{:.3}\t{:.3}\t{:.3}\t{}",
            schedule[d.index].op,
            s.due * 1e3,
            s.sent * 1e3,
            s.done * 1e3,
            s.answered
        )?;
    }
    out.flush()
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let window = if ctx.traced {
        ctx.run_for() / 2
    } else {
        ctx.run_for()
    };
    let schedule = arrivals(&mut Rng::new(ctx.seed).fork(4), RATE, window.as_secs_f64());
    let refs = references()?;

    // Set-up: server to first pong, then the warm entries the mix
    // assumes — each small app and eigen's artifacts — in the store.
    let (server, setup_s) = wire::set_up(&ctx.lycos, "mix", 3, |server| {
        let mut c = Conn::open(&server.addr).map_err(|e| e.to_string())?;
        for line in SMALL_APPS
            .iter()
            .map(|a| small_line(a))
            .chain([deadline_line(None)])
        {
            let x = c.request(&line).map_err(|e| e.to_string())?;
            if x.status != Status::Ok {
                return Err(format!("priming answered {:?}", x.status));
            }
        }
        Ok(())
    })?;

    let done = open_loop(&server.addr, &schedule, &refs);
    write_samples(&done, &schedule, ctx.seed).map_err(|e| e.to_string())?;
    let mut busy = 0;
    for d in &done {
        report.attempted += 1;
        busy += u32::from(d.busy);
        if let Some(e) = &d.error {
            report.fail(format!(
                "{:?} due at {:.3}s: {e}",
                schedule[d.index].op, d.sample.due
            ));
        }
    }
    let end = done
        .iter()
        .map(|d| d.sample.done)
        .fold(window.as_secs_f64(), f64::max);
    let schedule = &schedule;
    let of = |keep: fn(MixOp) -> bool| done.iter().filter(move |d| keep(schedule[d.index].op));
    let is_small = |op: MixOp| matches!(op, MixOp::Ping | MixOp::Stats | MixOp::Small(_));
    let small: Vec<f64> = of(is_small)
        .filter(|d| d.sample.answered)
        .map(|d| d.sample.latency_ms())
        .collect();
    let overshoot: Vec<f64> = of(|op| op == MixOp::Deadline)
        .filter(|d| d.sample.answered)
        .map(|d| d.sample.latency_ms() - DEADLINE_MS as f64)
        .collect();
    let within = of(is_small)
        .filter(|d| d.sample.within(SMALL_LIMIT_MS))
        .count()
        + of(|op| matches!(op, MixOp::Deadline | MixOp::Cancellable(_)))
            .filter(|d| d.sample.within(DEADLINE_MS as f64 + DEADLINE_SLACK_MS))
            .count();
    let lateness: Vec<f64> = done.iter().map(|d| d.sample.lateness_ms()).collect();
    let (small_s, deadline_s, late_s) = (
        summarize(&small),
        summarize(&overshoot),
        summarize(&lateness),
    );
    for (label, s) in [
        ("small", small_s),
        ("deadline", deadline_s),
        ("generator lateness", late_s),
    ] {
        if let Some(s) = s {
            report.note(format!(
                "{label}: p50 {:.3} ms, tail (p{}) {:.3} ms over {} requests",
                s.p50, s.tail_pct, s.tail, s.n
            ));
        }
    }
    let cancelled = of(|op| matches!(op, MixOp::Cancellable(_)))
        .filter(|d| d.completion.as_deref() == Some("cancelled"))
        .count();
    report.note(format!(
        "{} arrivals at {RATE}/s over {:.1} s; {within} within their limits; {busy} busy; {cancelled} jobs cancelled",
        schedule.len(),
        window.as_secs_f64()
    ));

    let mut conn = Conn::open(&server.addr).map_err(|e| e.to_string())?;
    if ctx.traced {
        wire::publish_stats(&mut conn, report)?;
        let (kept, _) = wire::ping_probe(&server.addr, &mut conn, 20)?;
        report.set("serve.keepalive_ping_ms", kept);
    }
    let peak_rss_mb = server.peak_rss_mb()?;
    drop(conn);
    server.shutdown()?;

    if !ctx.traced {
        let (small_s, deadline_s) = (
            small_s.ok_or("no small request answered")?,
            deadline_s.ok_or("no deadline job answered")?,
        );
        report.set("setup_s", setup_s);
        report.set("primary_p50_ms", small_s.p50);
        report.set("primary_tail_ms", small_s.tail);
        report.set("secondary_p50_ms", deadline_s.p50);
        report.set("secondary_tail_ms", deadline_s.tail);
        report.set("ops_per_s", within as f64 / end);
        report.set("peak_rss_mb", peak_rss_mb);
        return Ok(());
    }

    // Wire-level layer figures, timed from the send (not the due time).
    let pings: Vec<f64> = of(|op| op == MixOp::Ping)
        .filter(|d| d.sample.answered)
        .map(|d| d.wire_ms)
        .collect();
    report.set("serve.fresh_ping_ms", median(&pings));
    let tables: Vec<&Done> = of(|op| matches!(op, MixOp::Small(_) | MixOp::Deadline))
        .filter(|d| d.sample.answered)
        .collect();
    report.set(
        "serve.ttfb_ms",
        median(&tables.iter().map(|d| d.ttfb_ms).collect::<Vec<_>>()),
    );
    report.set(
        "serve.write_ms",
        median(
            &tables
                .iter()
                .map(|d| d.wire_ms - d.ttfb_ms)
                .collect::<Vec<_>>(),
        ),
    );
    report.set("serve.busy", f64::from(busy));
    report.set("load.lateness_ms", late_s.map_or(0.0, |s| s.tail));
    let cancels: Vec<f64> = done
        .iter()
        .filter_map(|d| match schedule[d.index].op {
            MixOp::Cancel(id) => d.cancel_landed.map(|landed| (id, landed)),
            _ => None,
        })
        .filter_map(|(id, landed)| {
            done.iter()
                .find(|j| {
                    schedule[j.index].op == MixOp::Cancellable(id)
                        && j.completion.as_deref() == Some("cancelled")
                })
                .map(|j| (j.sample.done - landed) * 1e3)
        })
        .collect();
    if !cancels.is_empty() {
        report.set("serve.cancel_ms", median(&cancels));
    }

    // Replay the table1 requests in process, in arrival order, against
    // two stores primed as the server's was.
    let apps = lycos::apps::all();
    let app = |name: &str| apps.iter().find(|a| a.name == name).expect("bundled app");
    let cap = SearchOptions::default().store_cap;
    let (decomposed, whole) = (ArtifactStore::new(cap), ArtifactStore::new(cap));
    let deadline = Some(Duration::from_millis(DEADLINE_MS));
    let mut priming = Replayer::new(false);
    for name in SMALL_APPS {
        priming.table1(
            0,
            &Program::Bundled(app(name)),
            app(name).area_budget,
            &small_options(),
            None,
            &decomposed,
            &whole,
        )?;
    }
    let eigen = app("eigen");
    priming.table1(
        0,
        &Program::Bundled(eigen),
        eigen.area_budget,
        &deadline_options(),
        deadline,
        &decomposed,
        &whole,
    )?;
    let mut replay = Replayer::new(true);
    let mut overheads = Vec::new();
    let started = Instant::now();
    for d in &done {
        if started.elapsed() >= window && !overheads.is_empty() {
            break;
        }
        let (program, options, limit) = match schedule[d.index].op {
            MixOp::Small(i) => (app(SMALL_APPS[i]), small_options(), None),
            MixOp::Deadline => (eigen, deadline_options(), deadline),
            _ => continue,
        };
        let r = replay.table1(
            d.index as u64,
            &Program::Bundled(program),
            program.area_budget,
            &options,
            limit,
            &decomposed,
            &whole,
        )?;
        if d.sample.answered {
            replay
                .samples
                .push("pace.search_share_pct", 100.0 * r.search_ms / d.wire_ms);
            if limit.is_none() {
                overheads.push(d.wire_ms - r.layers_ms);
            }
        }
    }
    report.set("serve.overhead_ms", median(&overheads));
    let hal = app("hal");
    let overhead = crate::layers::tracing_overhead_pct(|on| {
        let mut r = Replayer::new(on);
        r.table1(
            u64::MAX,
            &Program::Bundled(hal),
            hal.area_budget,
            &small_options(),
            None,
            &decomposed,
            &whole,
        )
        .map(|x| x.op_ms)
    })?;
    replay.samples.push("trace.overhead_pct", overhead);
    replay
        .trace
        .write_tsv(&wire::out_path(&format!(
            "trace-serve-mix-{}.tsv",
            ctx.seed
        )))
        .map_err(|e| e.to_string())?;
    replay.samples.publish(report);
    Ok(())
}

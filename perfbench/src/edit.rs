//! `edit-loop`: one designer on one keep-alive connection, editing the
//! bundled programs and re-allocating each version.

use crate::gen::{edit_stream, EditRequest};
use crate::layers::{Program, Replayer};
use crate::report::Report;
use crate::rng::Rng;
use crate::stats::{median, summarize};
use crate::wire::{self, Conn, Status};
use crate::Ctx;
use lycos::explore::{table1_csv_row, Table1Options};
use lycos::hwlib::Area;
use lycos::pace::{ArtifactStore, SearchOptions};
use lycos_serve::protocol::encode;
use std::time::Instant;

/// Requests generated per measured second: two to four times what the
/// loop sends on a 2-core machine.
const STREAM_PER_SECOND: f64 = 450.0;

/// One request in this many is checked against a store-less
/// from-scratch build after timing (a seeded choice). Checking every
/// one would cost several times the timed loop.
const VERIFY_ONE_IN: usize = 16;

/// The knobs a request resolves to on a `lycos serve --threads 2`
/// server: `bound limit=1024` over the server's defaults.
fn request_options() -> Table1Options {
    Table1Options::from_search_options(
        &SearchOptions::new()
            .threads(2)
            .limit(Some(1024))
            .bound(true),
    )
}

fn line(source: &str, budget: u64) -> String {
    format!(
        "table1 src={}@{budget} bound limit=1024 format=csv",
        encode(source)
    )
}

/// What one timed request returned.
struct Sent {
    index: usize,
    total_ms: f64,
    ttfb_ms: f64,
    cells: Vec<String>,
}

/// The from-scratch answer: a store-less `Pipeline` over the source.
fn reference(req: &EditRequest, options: &Table1Options) -> Result<Vec<String>, String> {
    let row = lycos::Pipeline::new(req.source.to_string())
        .with_budget(Area::new(req.budget))
        .table1_row(options)
        .map_err(|e| e.to_string())?;
    Ok(table1_csv_row(&row, false)
        .split(',')
        .map(str::to_owned)
        .collect())
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let apps = lycos::apps::all();
    // The designer spends 40% of requests on eigen and 20% on each
    // other program, so the edit median falls inside one program's
    // latencies (man's) instead of on the gap between two.
    let weight = |name: &str| if name == "eigen" { 2 } else { 1 };
    let originals: Vec<(&str, u64, u32)> = apps
        .iter()
        .map(|a| (a.source, a.area_budget, weight(a.name)))
        .collect();
    let rng = Rng::new(ctx.seed);
    let generating = Instant::now();
    let stream = edit_stream(
        &mut rng.fork(2),
        &originals,
        (STREAM_PER_SECOND * ctx.seconds) as usize,
        |s| lycos::frontend::compile(s).is_ok(),
    );
    let lines: Vec<String> = stream.iter().map(|r| line(&r.source, r.budget)).collect();
    let mut pick = rng.fork(3);
    let verify: Vec<bool> = (0..stream.len())
        .map(|_| pick.below(VERIFY_ONE_IN) == 0)
        .collect();
    let options = request_options();
    report.note(format!(
        "{} requests generated and compiled in {:.2} s",
        stream.len(),
        generating.elapsed().as_secs_f64()
    ));

    // Set-up: server to first pong, then the designer's starting point —
    // every original program allocated once on the kept connection.
    let mut conn = None;
    let (server, setup_s) = wire::set_up(&ctx.lycos, "edit", 3, |server| {
        let mut c = Conn::open(&server.addr).map_err(|e| e.to_string())?;
        for &(source, budget, _) in &originals {
            let x = c
                .request(&line(source, budget))
                .map_err(|e| e.to_string())?;
            if x.status != Status::Ok {
                return Err(format!("priming answered {:?}", x.status));
            }
        }
        conn = Some(c);
        Ok(())
    })?;
    let mut conn = conn.expect("set up primes a connection");

    let window = if ctx.traced {
        ctx.run_for() / 2
    } else {
        ctx.run_for()
    };
    let started = Instant::now();
    let mut sent = Vec::new();
    for (index, line) in lines.iter().enumerate() {
        if started.elapsed() >= window {
            break;
        }
        report.attempted += 1;
        let outcome = conn
            .request(line)
            .map_err(|e| e.to_string())
            .and_then(|x| match x.status {
                Status::Ok => wire::table1_cells(&x.body).map(|cells| (x, cells)),
                other => Err(format!("answered {other:?}")),
            });
        match outcome {
            Ok((x, cells)) => sent.push(Sent {
                index,
                total_ms: x.total.as_secs_f64() * 1e3,
                ttfb_ms: x.ttfb.as_secs_f64() * 1e3,
                cells,
            }),
            Err(e) => report.fail(format!("request {index}: {e}")),
        }
    }
    let seconds = started.elapsed().as_secs_f64();
    if report.attempted as usize == lines.len() {
        report.note(format!(
            "the loop sent all {} generated requests in {seconds:.1} s, short of the window",
            lines.len()
        ));
    }

    if ctx.traced {
        let (kept, fresh) = wire::ping_probe(&server.addr, &mut conn, 20)?;
        report.set("serve.keepalive_ping_ms", kept);
        report.set("serve.fresh_ping_ms", fresh);
        wire::publish_stats(&mut conn, report)?;
    }
    let peak_rss_mb = server.peak_rss_mb()?;
    drop(conn);
    server.shutdown()?;

    // Answers, checked after timing on the seeded sample.
    let verifying = Instant::now();
    let mut checked = 0;
    let mut wrong = Vec::new();
    for s in sent.iter().filter(|s| verify[s.index]) {
        let want = reference(&stream[s.index], &options)?;
        checked += 1;
        if wire::winner_cells(&s.cells) != wire::winner_cells(&want) {
            wrong.push(s.index);
            report.fail(format!(
                "request {} (v{} of app {}): winner columns {:?}, from scratch {:?}",
                s.index,
                stream[s.index].version,
                stream[s.index].app,
                wire::winner_cells(&s.cells),
                wire::winner_cells(&want)
            ));
        }
    }
    sent.retain(|s| !wrong.contains(&s.index));
    report.note(format!(
        "{checked} of {} answers checked against a from-scratch build in {:.2} s",
        sent.len(),
        verifying.elapsed().as_secs_f64()
    ));

    let class = |resend: bool| -> Vec<f64> {
        sent.iter()
            .filter(|s| stream[s.index].resend == resend)
            .map(|s| s.total_ms)
            .collect()
    };
    let (edits, resends) = (summarize(&class(false)), summarize(&class(true)));
    for (label, s) in [("edit", edits), ("resend", resends)] {
        if let Some(s) = s {
            report.note(format!(
                "{label}_p50_ms {:.3}, {label}_tail_ms (p{}) {:.3} over {} requests",
                s.p50, s.tail_pct, s.tail, s.n
            ));
        }
    }
    for (i, app) in apps.iter().enumerate() {
        let of_app: Vec<f64> = sent
            .iter()
            .filter(|s| stream[s.index].app == i)
            .map(|s| s.total_ms)
            .collect();
        if let Some(s) = summarize(&of_app) {
            report.note(format!(
                "  {}: p50 {:.3} ms, p{} {:.3} ms over {} requests",
                app.name, s.p50, s.tail_pct, s.tail, s.n
            ));
        }
    }
    report.note(format!(
        "peak_rss_mb {peak_rss_mb:.1}, setup_s {setup_s:.4}"
    ));
    if !ctx.traced {
        let (edits, resends) = (
            edits.ok_or("no correct edit")?,
            resends.ok_or("no correct resend")?,
        );
        report.set("setup_s", setup_s);
        report.set("primary_p50_ms", edits.p50);
        report.set("primary_tail_ms", edits.tail);
        report.set("secondary_p50_ms", resends.p50);
        report.set("secondary_tail_ms", resends.tail);
        report.set("ops_per_s", sent.len() as f64 / seconds);
        report.set("peak_rss_mb", peak_rss_mb);
        return Ok(());
    }

    report.set(
        "serve.ttfb_ms",
        median(&sent.iter().map(|s| s.ttfb_ms).collect::<Vec<_>>()),
    );
    report.set(
        "serve.write_ms",
        median(
            &sent
                .iter()
                .map(|s| s.total_ms - s.ttfb_ms)
                .collect::<Vec<_>>(),
        ),
    );
    report.set("serve.busy", 0.0);

    // Traced: replay the same requests in process, in order, against
    // two stores primed as the server's was.
    let cap = SearchOptions::default().store_cap;
    let (decomposed, whole) = (ArtifactStore::new(cap), ArtifactStore::new(cap));
    let mut priming = Replayer::new(false);
    for (app, &(source, budget, _)) in apps.iter().zip(&originals) {
        let program = Program::Inline {
            name: app.name,
            source,
        };
        priming.table1(0, &program, budget, &options, None, &decomposed, &whole)?;
    }
    let mut replay = Replayer::new(true);
    let mut overheads = Vec::new();
    let replay_started = Instant::now();
    let mut last = None;
    for (op, req) in stream.iter().enumerate() {
        if replay_started.elapsed() >= window && op > 0 {
            break;
        }
        let program = Program::Inline {
            name: apps[req.app].name,
            source: &req.source,
        };
        let r = replay.table1(
            op as u64,
            &program,
            req.budget,
            &options,
            None,
            &decomposed,
            &whole,
        )?;
        if let Some(s) = sent.iter().find(|s| s.index == op) {
            overheads.push(s.total_ms - r.layers_ms);
            replay
                .samples
                .push("pace.search_share_pct", 100.0 * r.search_ms / s.total_ms);
        }
        last = Some(req);
    }
    report.set("serve.overhead_ms", median(&overheads));
    let last = last.expect("replayed at least one request");
    let program = Program::Inline {
        name: apps[last.app].name,
        source: &last.source,
    };
    let overhead = crate::layers::tracing_overhead_pct(|on| {
        let mut r = Replayer::new(on);
        r.table1(
            u64::MAX,
            &program,
            last.budget,
            &options,
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
            "trace-edit-loop-{}.tsv",
            ctx.seed
        )))
        .map_err(|e| e.to_string())?;
    replay.samples.publish(report);
    Ok(())
}

//! In-process replays of the ops the workloads send, split into the
//! public layer calls the program makes for them, each wrapped in a
//! span. The replays mirror the CLI (`lycos best` / `lycos pareto`)
//! and the server's `table1` path call for call; they exist only in the
//! traced run.

use crate::trace::Trace;
use lycos::apps::BenchmarkApp;
use lycos::core::{allocate, AllocConfig, Restrictions};
use lycos::explore::flow::evaluate;
use lycos::explore::{apply_iteration, table1_row_with_store_stop, Table1Options, Table1Subject};
use lycos::hwlib::{Area, HwLibrary};
use lycos::ir::{extract_bsbs, BsbArray};
use lycos::pace::{
    partition, partition_with_artifacts, search_best_with_stop, search_pareto_with_stop,
    ArtifactKey, ArtifactStore, BlockKey, DpScratch, PaceConfig, SearchArtifacts, SearchOptions,
    SearchStats, StopSignal, WarmSeed,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Per-op samples of each per-layer metric; the report takes medians.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// Reports the median of every sampled metric.
    pub fn publish(&self, report: &mut crate::report::Report) {
        for (&name, values) in &self.0 {
            report.set(name, crate::stats::median(values));
        }
    }
}

/// Tracing overhead in percent: one replayed op run with span
/// recording on and off, alternately, nine times each; medians compared.
pub fn tracing_overhead_pct(
    mut op_ms: impl FnMut(bool) -> Result<f64, String>,
) -> Result<f64, String> {
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for _ in 0..9 {
        on.push(op_ms(true)?);
        off.push(op_ms(false)?);
    }
    let base = crate::stats::median(&off);
    Ok(100.0 * (crate::stats::median(&on) - base) / base)
}

/// How a replayed request names its program.
pub enum Program<'a> {
    /// A bundled app: the program reuses its precompiled CDFG.
    Bundled(&'a BenchmarkApp),
    /// An inline source the frontend must compile.
    Inline { name: &'a str, source: &'a str },
}

impl Program<'_> {
    /// The §5 design iteration `table1` applies, if any.
    fn iteration(&self) -> Option<lycos::apps::IterationHint> {
        match self {
            Program::Bundled(app) => app.iteration,
            Program::Inline { .. } => None,
        }
    }
}

/// What the CLI search commands run.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Best,
    Pareto,
}

pub struct Replayer {
    pub lib: HwLibrary,
    pub pace: PaceConfig,
    pub samples: Samples,
    pub trace: Trace,
}

/// Times of one replayed op, in ms: the whole replay, the calls the
/// real request is made of (for `table1`: frontend, extraction and the
/// `table1` call), and the sweep alone.
pub struct Replayed {
    pub op_ms: f64,
    pub layers_ms: f64,
    pub search_ms: f64,
}

impl Replayer {
    pub fn new(traced: bool) -> Self {
        Replayer {
            lib: HwLibrary::standard(),
            pace: PaceConfig::standard(),
            samples: Samples::default(),
            trace: Trace::new(traced),
        }
    }

    /// The frontend (inline sources only) and BSB extraction; returns
    /// the blocks and the time both took.
    fn front(&mut self, op: u64, program: &Program<'_>) -> Result<(BsbArray, f64), String> {
        let compiled;
        let (cdfg, mut front_ms) = match program {
            Program::Bundled(app) => (&app.cdfg, 0.0),
            Program::Inline { source, .. } => {
                let (cdfg, took) = self
                    .trace
                    .timed(op, "frontend.compile", || lycos::frontend::compile(source));
                compiled = cdfg.map_err(|e| e.to_string())?;
                self.samples.push("frontend.compile_ms", ms(took));
                self.samples.push(
                    "frontend.bytes_per_ms",
                    source.len() as f64 / ms(took).max(1e-6),
                );
                (&compiled, ms(took))
            }
        };
        let (bsbs, took) = self
            .trace
            .timed(op, "ir.extract", || extract_bsbs(cdfg, None));
        let bsbs = bsbs.map_err(|e| e.to_string())?;
        self.samples.push("ir.extract_ms", ms(took));
        self.samples.push("ir.blocks", bsbs.len() as f64);
        front_ms += ms(took);
        Ok((bsbs, front_ms))
    }

    fn restrictions(&mut self, op: u64, bsbs: &BsbArray) -> Result<(Restrictions, f64), String> {
        let (restr, took) = self.trace.timed(op, "core.restrict", || {
            Restrictions::from_asap(bsbs, &self.lib)
        });
        self.samples.push("core.restrict_ms", ms(took));
        Ok((restr.map_err(|e| e.to_string())?, ms(took)))
    }

    /// The fingerprints a store lookup computes first.
    fn keys(&mut self, op: u64, bsbs: &BsbArray, restr: &Restrictions) {
        let (lib, pace) = (&self.lib, &self.pace);
        let (_, took) = self.trace.timed(op, "pace.key", || {
            let key = ArtifactKey::of(bsbs, lib, restr, pace);
            let blocks: Vec<BlockKey> = bsbs.iter().map(|b| BlockKey::of(b, lib, restr)).collect();
            std::hint::black_box((key, blocks))
        });
        self.samples.push("pace.key_ms", ms(took));
    }

    fn search_stats(&mut self, stats: &SearchStats, evaluated: usize, space: u128, took: Duration) {
        self.samples.push("pace.search_ms", ms(took));
        self.samples.push("pace.evaluated", evaluated as f64);
        self.samples.push("pace.bounded", stats.bounded as f64);
        self.samples.push("pace.unvisited", stats.unvisited as f64);
        self.samples.push(
            "pace.prune_ratio",
            stats.bounded as f64 / space.max(1) as f64,
        );
        self.samples.push(
            "pace.us_per_eval",
            took.as_secs_f64() * 1e6 / evaluated.max(1) as f64,
        );
        self.samples.push("pace.cache_hit_ratio", stats.hit_rate());
        self.samples.push("pace.steals", stats.steals as f64);
    }

    /// Replays one `lycos best|pareto eigen <budget> --bound --threads 2`
    /// call: extraction from the precompiled CDFG, ASAP restrictions,
    /// artifact preparation (plus the communication-memo fill the
    /// `best` path's store performs), the sweep, and a DP replay of the
    /// winning candidate.
    pub fn cli_search(
        &mut self,
        op: u64,
        app: &BenchmarkApp,
        engine: Engine,
        budget: u64,
    ) -> Result<Replayed, String> {
        let root = self.trace.begin(op, "op");
        let (bsbs, _) = self.front(op, &Program::Bundled(app))?;
        let (restr, _) = self.restrictions(op, &bsbs)?;
        self.keys(op, &bsbs, &restr);
        let (artifacts, took) = self.trace.timed(op, "pace.prepare", || {
            SearchArtifacts::prepare(&bsbs, &self.lib, &restr, &self.pace)
        });
        let mut artifacts = artifacts.map_err(|e| e.to_string())?;
        self.samples.push("pace.prepare_ms", ms(took));
        if engine == Engine::Best {
            let (_, took) = self.trace.timed(op, "pace.comm_fill", || {
                artifacts.warm_comm(&bsbs, &self.pace)
            });
            self.samples.push("pace.comm_fill_ms", ms(took));
        }
        let options = SearchOptions::new()
            .threads(2)
            .limit(Some(200_000))
            .bound(true);
        let area = Area::new(budget);
        let never = StopSignal::never();
        let (lib, pace) = (&self.lib, &self.pace);
        let (winner, search_ms) = match engine {
            Engine::Best => {
                let (res, took) = self.trace.timed(op, "pace.search", || {
                    search_best_with_stop(&bsbs, lib, area, pace, &options, &artifacts, &[], &never)
                });
                let res = res.map_err(|e| e.to_string())?;
                self.search_stats(&res.stats, res.evaluated, res.space_size, took);
                (res.best_allocation, ms(took))
            }
            Engine::Pareto => {
                let (res, took) = self.trace.timed(op, "pace.search", || {
                    search_pareto_with_stop(&bsbs, lib, area, pace, &options, &artifacts, &never)
                });
                let res = res.map_err(|e| e.to_string())?;
                self.search_stats(&res.stats, res.evaluated, res.space_size, took);
                let last = res.points.last().ok_or("empty frontier")?;
                (last.allocation.clone(), ms(took))
            }
        };
        self.dp_replay(op, &bsbs, &winner, area, &artifacts)?;
        let op_ms = ms(self.end_op(root));
        Ok(Replayed {
            op_ms,
            layers_ms: op_ms,
            search_ms,
        })
    }

    /// Times single DP evaluations of a recorded candidate.
    fn dp_replay(
        &mut self,
        op: u64,
        bsbs: &BsbArray,
        allocation: &lycos::core::RMap,
        area: Area,
        artifacts: &SearchArtifacts,
    ) -> Result<(), String> {
        const REPEATS: u32 = 3;
        let mut scratch = DpScratch::new();
        let (lib, pace) = (&self.lib, &self.pace);
        let (out, took) = self.trace.timed(op, "pace.dp", || {
            (0..REPEATS)
                .map(|_| {
                    partition_with_artifacts(
                        bsbs,
                        lib,
                        allocation,
                        area,
                        pace,
                        &mut scratch,
                        artifacts,
                    )
                })
                .collect::<Result<Vec<_>, _>>()
        });
        out.map_err(|e| e.to_string())?;
        self.samples
            .push("pace.dp_us", took.as_secs_f64() * 1e6 / f64::from(REPEATS));
        Ok(())
    }

    /// Closes an op's root span; its self time is the op's time no
    /// layer span covers.
    fn end_op(&mut self, root: crate::trace::Open) -> Duration {
        let index = root.index();
        let took = self.trace.end(root);
        if let Some(index) = index {
            self.samples
                .push("trace.unattributed_ms", ms(self.trace.self_time(index)));
        }
        took
    }

    /// Replays one `table1` request as the server runs it: frontend,
    /// then the flow `table1_row_with_store_stop` performs, as its
    /// separate public calls against `decomposed` (restrictions,
    /// Algorithm 1, the heuristic partition, the store lookup, the
    /// sweep, the design iteration), then the `table1` call itself
    /// against `whole`. Both stores must have seen the same requests
    /// as the server's. `deadline` replays a `deadline-ms` job.
    #[allow(clippy::too_many_arguments)]
    pub fn table1(
        &mut self,
        op: u64,
        program: &Program<'_>,
        budget: u64,
        options: &Table1Options,
        deadline: Option<Duration>,
        decomposed: &ArtifactStore,
        whole: &ArtifactStore,
    ) -> Result<Replayed, String> {
        let root = self.trace.begin(op, "op");
        let (bsbs, front_ms) = self.front(op, program)?;
        let area = Area::new(budget);
        // Alternate which side runs first, so neither always finds the
        // caches the other warmed.
        let whole_ms = if op % 2 == 1 {
            Some(self.whole_table1(op, program, &bsbs, area, options, deadline, whole)?)
        } else {
            None
        };
        let (restr, mut children_ms) = self.restrictions(op, &bsbs)?;
        let (lib, pace) = (&self.lib, &self.pace);
        let (outcome, took) = self.trace.timed(op, "core.allocate", || {
            allocate(&bsbs, lib, &pace.eca, area, &restr, &AllocConfig::default())
        });
        let outcome = outcome.map_err(|e| e.to_string())?;
        self.samples.push("core.allocate_ms", ms(took));
        children_ms += ms(took);
        let (heuristic, took) = self.trace.timed(op, "pace.partition", || {
            partition(&bsbs, lib, &outcome.allocation, area, pace)
        });
        heuristic.map_err(|e| e.to_string())?;
        children_ms += ms(took);

        self.keys(op, &bsbs, &restr);
        let (lib, pace) = (&self.lib, &self.pace);
        let search_options = options.search_options();
        let (looked_up, took) = self.trace.timed(op, "pace.prepare", || {
            decomposed.get_or_build_incremental(&bsbs, lib, &restr, pace)
        });
        let (artifacts, store_outcome) = looked_up.map_err(|e| e.to_string())?;
        self.samples.push("pace.prepare_ms", ms(took));
        self.samples.push(
            "pace.store_hit_ratio",
            f64::from(u8::from(store_outcome.hit)),
        );
        self.samples.push(
            "pace.incremental_ratio",
            f64::from(u8::from(store_outcome.incremental)),
        );
        if store_outcome.incremental {
            let blocks = (store_outcome.blocks_reused + store_outcome.blocks_rederived).max(1);
            self.samples.push(
                "pace.blocks_reused_ratio",
                store_outcome.blocks_reused as f64 / blocks as f64,
            );
        }
        children_ms += ms(took);
        let seeds = if search_options.warm && search_options.bound {
            decomposed.warm_seeds(artifacts.key(), area)
        } else {
            Vec::new()
        };
        let stop = deadline.map_or_else(StopSignal::never, StopSignal::after);
        let deadline_at = deadline.map(|d| Instant::now() + d);
        let (res, took) = self.trace.timed(op, "pace.search", || {
            search_best_with_stop(
                &bsbs,
                lib,
                area,
                pace,
                &search_options,
                &artifacts,
                &seeds,
                &stop,
            )
        });
        let returned = Instant::now();
        let res = res.map_err(|e| e.to_string())?;
        self.search_stats(&res.stats, res.evaluated, res.space_size, took);
        if let Some(at) = deadline_at {
            let overshoot = returned.saturating_duration_since(at).as_secs_f64()
                - at.saturating_duration_since(returned).as_secs_f64();
            self.samples.push("pace.stop_overshoot_ms", overshoot * 1e3);
        }
        decomposed.record_winner(
            artifacts.key(),
            area,
            WarmSeed {
                time: res.best_partition.total_time.count(),
                gates: res.best_gates,
                index: res.best_index,
            },
        );
        let search_ms = ms(took);
        children_ms += search_ms;
        if let Some(hint) = program.iteration() {
            let (lib, pace) = (&self.lib, &self.pace);
            let (p, took) = self.trace.timed(op, "explore.iteration", || {
                evaluate(
                    &bsbs,
                    lib,
                    &apply_iteration(&outcome.allocation, hint, lib),
                    area,
                    pace,
                )
            });
            p.map_err(|e| e.to_string())?;
            children_ms += ms(took);
        }

        let whole_ms = match whole_ms {
            Some(took) => took,
            None => self.whole_table1(op, program, &bsbs, area, options, deadline, whole)?,
        };
        self.samples
            .push("explore.table1_self_ms", whole_ms - children_ms);
        let op_ms = ms(self.end_op(root));
        Ok(Replayed {
            op_ms,
            layers_ms: front_ms + whole_ms,
            search_ms,
        })
    }

    /// The `table1` call itself, as the server makes it; returns its ms.
    #[allow(clippy::too_many_arguments)]
    fn whole_table1(
        &mut self,
        op: u64,
        program: &Program<'_>,
        bsbs: &BsbArray,
        area: Area,
        options: &Table1Options,
        deadline: Option<Duration>,
        whole: &ArtifactStore,
    ) -> Result<f64, String> {
        let name = match program {
            Program::Bundled(app) => app.name,
            Program::Inline { name, .. } => name,
        };
        let lines = match program {
            Program::Bundled(app) => app.lines,
            Program::Inline { source, .. } => lycos::frontend::line_count(source),
        };
        let subject = Table1Subject {
            name,
            lines,
            bsbs,
            budget: area,
            iteration: program.iteration(),
        };
        let mut table1_options = options.clone();
        if let Some(d) = deadline {
            table1_options.deadline_ms = Some(d.as_millis() as u64);
        }
        let (lib, pace) = (&self.lib, &self.pace);
        let (row, took) = self.trace.timed(op, "explore.table1", || {
            table1_row_with_store_stop(
                &subject,
                lib,
                pace,
                &table1_options,
                Some(whole),
                &StopSignal::never(),
            )
        });
        row.map_err(|e| e.to_string())?;
        Ok(ms(took))
    }
}

//! `figure1_full` and `proc_full`: the paper's Figure 1 at Full scale
//! (DFIFO, RGP+LAS, RGP+LAS with anchored re-partitioning and EP against
//! the LAS baseline: 8 applications × 5 policies = 40 cells).
//!
//! One iteration is what a `figure1` CLI user pays after process start:
//! spec build on a fresh [`SpecCache`], plan, execute, serialize the
//! measurement JSON. `figure1_full` executes in-process with two worker
//! threads; `proc_full` executes serially through a fresh two-process
//! worker pool (spawn, config and spec shipping included), as every
//! `figure1 --backend proc` invocation does.
//!
//! The traced run executes the same sweep serially with stage timing on and
//! wraps each layer's entry point, so the layers below partition the
//! iteration's wall time:
//!
//! `kernels.spec_build` (`SpecCache::get`) → `runtime.plan`
//! (`Experiment::plan` + executor construction) → per cell
//! (`SweepPlan::run_cell`): `core.policy` (policy self time) →
//! `graph.partition` → `runtime.simulate` (event loop + NUMA cost model) →
//! `runtime.assemble` (`SweepPlan::assemble_report`) → `runtime.serialize`
//! (`SweepReport::to_json_string`); plus, for `proc_full`, `proc.spawn`
//! (`WorkerPool::spawn`), `proc.wire` (cell round trip minus the
//! worker-reported policy and event-loop time) and `proc.shutdown` (pool
//! drop: drain barrier and reaping).

use std::sync::Arc;
use std::time::{Duration, Instant};

use numadag_core::PolicyKind;
use numadag_kernels::{Application, ProblemScale, SpecCache};
use numadag_proc::protocol::{decode_spec, encode_spec};
use numadag_proc::{shared_pool, PoolConfig, ProcExecutor, WorkerPool};
use numadag_runtime::framing::{to_line, untag};
use numadag_runtime::{Backend, Executor, Experiment, SweepReport};

use crate::stats::{
    calibration_samples, calm_median, calmer_half, median, ms, quantile, steal_summary, timed,
    Calibration, StealMeter, Window,
};
use crate::{Args, Outcome, SETUP_REPEATS};

/// The seed of the committed baseline `BENCH_figure1_full.json`.
pub const BASELINE_SEED: u64 = 0xF1617E;

/// The policy columns of the committed Full baseline.
pub const POLICIES: &str = "dfifo,rgp-las,rgp-las:prop=repart,ep";

/// The committed Full-scale measurement JSON (seed [`BASELINE_SEED`]).
pub const BASELINE_JSON: &str = include_str!("../../BENCH_figure1_full.json");

/// The paper's headline RGP+LAS geometric-mean speedup over LAS.
pub const PAPER_GEOMEAN: f64 = 1.12;

/// Worker threads (`figure1_full`) and worker processes (`proc_full`).
pub const WORKERS: usize = 2;

/// Shortest measurement window of an untraced run (see [`Window`]).
pub const WINDOW: Duration = Duration::from_secs(1);

/// Which executor the sweep runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// `figure1_full`: in-process simulator, sharded over [`WORKERS`] threads.
    InProcess,
    /// `proc_full`: [`WORKERS`] worker processes, cells dispatched serially.
    Proc,
}

impl Mode {
    /// The tail percentile `op_tail_ms` reports. A 30-second run has
    /// ≈ 450 in-process sweeps, and p90 leaves ≈ 45 beyond it (higher
    /// percentiles spread more from run to run on a shared VM). It has
    /// ≈ 50 proc sweeps, and p80 is the highest with ten beyond it.
    pub fn tail_quantile(self) -> f64 {
        match self {
            Mode::InProcess => 0.9,
            Mode::Proc => 0.8,
        }
    }
}

/// The Figure-1 Full sweep at `seed`, drawing specs from `cache`.
pub fn experiment(seed: u64, cache: Arc<SpecCache>) -> Experiment {
    Experiment::new()
        .apps(Application::all())
        .scale(ProblemScale::Full)
        .policies(PolicyKind::parse_list(POLICIES).expect("the Figure-1 policy list parses"))
        .baseline(PolicyKind::Las)
        .seed(seed)
        .spec_cache(cache)
}

/// The expected measurement JSON for `seed`: a serial in-process run. At
/// [`BASELINE_SEED`] it must also equal the committed baseline.
pub fn reference_json(seed: u64) -> Result<String, String> {
    let json = experiment(seed, Arc::new(SpecCache::new()))
        .run()
        .to_json_string();
    if seed == BASELINE_SEED && json != BASELINE_JSON {
        return Err("serial in-process run differs from BENCH_figure1_full.json".to_string());
    }
    Ok(json)
}

/// The anchored RGP+LAS geometric-mean speedup of a report.
pub fn repart_geomean(report: &SweepReport) -> f64 {
    report
        .aggregates
        .iter()
        .find(|a| a.policy == "RGP+LAS:prop=repart")
        .map_or(0.0, |a| a.geomean_speedup)
}

/// Counts that must repeat exactly for a seed; a change signals a change
/// of behaviour, not noise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counts {
    /// Workload specs built per sweep.
    pub spec_builds: usize,
    /// Windows handed to the graph partitioner per sweep (in-process only:
    /// the proc coordinator never runs the partitioner itself).
    pub partition_windows: usize,
    /// Spec messages shipped to workers per sweep (proc only).
    pub spec_transfers: u64,
}

/// One untraced iteration.
pub struct Iteration {
    /// Wall time of the whole iteration (ms).
    pub wall_ms: f64,
    /// The serialized measurement JSON.
    pub json: String,
    /// The report (for its timing section).
    pub report: SweepReport,
    /// Deterministic counts of this iteration.
    pub counts: Counts,
    /// Cells the proc pool re-sent after losing a worker.
    pub redispatches: u64,
}

/// Runs one untraced iteration: `figure1_full` shards over [`WORKERS`]
/// threads; `proc_full` holds a fresh shared pool across a serial
/// `Experiment::run`, exactly as `figure1 --backend proc` does.
pub fn untraced(mode: Mode, seed: u64, jobs: usize) -> Result<Iteration, String> {
    let start = Instant::now();
    let cache = Arc::new(SpecCache::new());
    let (report, json, stats) = match mode {
        Mode::InProcess => {
            let report = experiment(seed, cache).parallelism(jobs).run();
            let json = report.to_json_string();
            (report, json, None)
        }
        Mode::Proc => {
            let pool = shared_pool(PoolConfig::new(WORKERS)).map_err(|e| e.to_string())?;
            let report = experiment(seed, cache)
                .backend(Backend::Proc { workers: WORKERS })
                .run();
            let json = report.to_json_string();
            let stats = pool.stats();
            drop(pool);
            (report, json, Some(stats))
        }
    };
    let wall_ms = ms(start.elapsed());
    let counts = Counts {
        spec_builds: report.timing.spec_builds,
        partition_windows: report.timing.cell_partition_windows.iter().sum(),
        spec_transfers: stats.map_or(0, |s| s.spec_transfers),
    };
    Ok(Iteration {
        wall_ms,
        json,
        report,
        counts,
        redispatches: stats.map_or(0, |s| s.redispatches),
    })
}

/// One traced (serial, stage-timed) iteration split into disjoint layers.
#[derive(Clone, Debug)]
pub struct Ledger {
    /// Self time per layer (ms), in pipeline order.
    pub layers: Vec<(&'static str, f64)>,
    /// Wall time of the whole traced iteration (ms).
    pub wall_ms: f64,
    /// Deterministic counts of this iteration.
    pub counts: Counts,
    /// Tasks simulated across all cells.
    pub tasks: usize,
    /// Cells the proc pool re-sent after losing a worker.
    pub redispatches: u64,
    /// The serialized measurement JSON.
    pub json: String,
}

impl Ledger {
    /// The self time of `layer` (0 if absent).
    pub fn layer(&self, name: &str) -> f64 {
        self.layers
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Wall time not covered by any layer (ms): loop glue and timer
    /// overhead. Small when the ledger is complete.
    pub fn unattributed_ms(&self) -> f64 {
        self.wall_ms - self.layers.iter().map(|(_, v)| v).sum::<f64>()
    }
}

/// Runs one traced iteration. See the module docs for the layer split.
pub fn traced(mode: Mode, seed: u64) -> Result<Ledger, String> {
    let start = Instant::now();
    let cache = Arc::new(SpecCache::new());
    let sockets = numadag_numa::Topology::bullion_s16().num_sockets();
    let mut spec_build_ms = 0.0;
    for app in Application::all() {
        spec_build_ms += timed(|| cache.get(app, ProblemScale::Full, sockets)).1;
    }
    let spec_builds = cache.builds();

    let (plan, plan_ms) = timed(|| {
        experiment(seed, Arc::clone(&cache))
            .stage_timing(true)
            .plan()
    });
    let (pool, spawn_ms) = match mode {
        Mode::InProcess => (None, 0.0),
        Mode::Proc => {
            let (pool, spawn_ms) = timed(|| WorkerPool::spawn(PoolConfig::new(WORKERS)));
            (Some(pool.map_err(|e| e.to_string())?), spawn_ms)
        }
    };
    let (executor, executor_ms) = timed(|| -> Box<dyn Executor> {
        let local = plan.executor();
        match &pool {
            None => local,
            Some(pool) => Box::new(ProcExecutor::with_pool(
                local.config().clone(),
                Arc::clone(pool),
            )),
        }
    });

    let execute_start = Instant::now();
    let mut round_trip_ms = Vec::with_capacity(plan.num_jobs());
    let outcomes = (0..plan.num_jobs())
        .map(|i| {
            let (outcome, t) = timed(|| plan.run_cell(i, executor.as_ref()));
            round_trip_ms.push(t);
            outcome
        })
        .collect();
    let execute_wall = execute_start.elapsed();
    let (report, assemble_ms) = timed(|| plan.assemble_report(outcomes, 1, execute_wall));
    let (json, serialize_ms) = timed(|| report.to_json_string());
    let pool_stats = pool.as_ref().map(|p| p.stats());
    let ((), shutdown_ms) = timed(|| {
        drop(executor);
        drop(pool);
    });
    let wall_ms = ms(start.elapsed());

    let timing = &report.timing;
    if timing.cell_wall_ns.len() != round_trip_ms.len() {
        return Err(format!(
            "{} of {} cells measured; the ledger needs every cell",
            timing.cell_wall_ns.len(),
            round_trip_ms.len()
        ));
    }
    let (mut policy_ms, mut partition_ms, mut simulate_ms, mut wire_ms) = (0.0, 0.0, 0.0, 0.0);
    for (i, round_trip) in round_trip_ms.iter().enumerate() {
        let cell = timing.cell_wall_ns[i] / 1e6;
        let partition = timing.cell_partition_wall_ns[i] / 1e6;
        let policy = timing.cell_policy_wall_ns[i] / 1e6;
        let event_loop = timing.cell_event_loop_wall_ns[i] / 1e6;
        simulate_ms += event_loop;
        match mode {
            // Everything in the cell outside the partitioner and the event
            // loop is policy work: construction, window extraction, assign.
            Mode::InProcess => {
                partition_ms += partition;
                policy_ms += cell - partition - event_loop;
            }
            // The worker reports its policy (partitioner included) and
            // event-loop time; the rest of the round trip is the wire.
            Mode::Proc => {
                policy_ms += policy;
                wire_ms += round_trip - policy - event_loop;
            }
        }
    }
    let mut layers = vec![
        ("kernels.spec_build_ms", spec_build_ms),
        ("runtime.plan_ms", plan_ms + executor_ms),
        ("core.policy_ms", policy_ms),
        ("graph.partition_ms", partition_ms),
        ("runtime.simulate_ms", simulate_ms),
        ("runtime.assemble_ms", assemble_ms),
        ("runtime.serialize_ms", serialize_ms),
    ];
    if mode == Mode::Proc {
        layers.push(("proc.spawn_ms", spawn_ms));
        layers.push(("proc.wire_ms", wire_ms));
        layers.push(("proc.shutdown_ms", shutdown_ms));
    }
    Ok(Ledger {
        layers,
        wall_ms,
        counts: Counts {
            spec_builds,
            partition_windows: timing.cell_partition_windows.iter().sum(),
            spec_transfers: pool_stats.map_or(0, |s| s.spec_transfers),
        },
        tasks: report.cells.iter().map(|c| c.tasks).sum(),
        redispatches: pool_stats.map_or(0, |s| s.redispatches),
        json,
    })
}

/// Encode and decode cost of shipping every spec of the sweep once, as the
/// proc pool does per worker: `(encode_ms, decode_ms, bytes)`.
pub fn spec_codec(seed: u64) -> Result<(f64, f64, usize), String> {
    let plan = experiment(seed, Arc::new(SpecCache::new())).plan();
    let (mut encode_ms, mut decode_ms, mut bytes) = (0.0, 0.0, 0);
    for workload in plan.workloads() {
        let (line, t) = timed(|| to_line(&encode_spec(&workload.spec)));
        encode_ms += t;
        bytes += line.len() + 1;
        let (decoded, t) = timed(|| {
            let value = serde_json::from_str(&line).map_err(|e| e.to_string())?;
            let (_, payload) = untag(&value)?;
            decode_spec(payload)
        });
        decode_ms += t;
        let (fp, _) = decoded?;
        if fp != workload.spec.fingerprint() {
            return Err(format!(
                "{}: spec fingerprint changed on the wire",
                workload.label
            ));
        }
    }
    Ok((encode_ms, decode_ms, bytes))
}

/// The end-to-end figures of an untraced run, as measured.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Median set-up time over the calmer half of the set-ups (s).
    pub setup_s: f64,
    /// Median operation latency (ms).
    pub op_p50_ms: f64,
    /// Tail operation latency (ms).
    pub op_tail_ms: f64,
    /// Operations per second of operation time.
    pub ops_per_s: f64,
    /// Peak RSS (MiB), calibration buffers excluded.
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// Records the figures scaled by the calibration factor `scale` (RSS
    /// unscaled), and prints the raw ones on standard error with `steal`,
    /// the run's [`steal_summary`].
    pub fn record(self, out: &mut Outcome, scale: f64, steal: &str) {
        eprintln!("raw: {self:?}; calibration factor {scale:.4}; {steal}");
        out.set("setup_s", scale * self.setup_s);
        out.set("op_p50_ms", scale * self.op_p50_ms);
        out.set("op_tail_ms", scale * self.op_tail_ms);
        out.set("ops_per_s", self.ops_per_s / scale);
        out.set("peak_rss_mb", self.peak_rss_mb);
    }
}

/// Runs `figure1_full` or `proc_full` for `args.seconds` and returns its
/// metrics.
pub fn run(mode: Mode, args: &Args, calibration: &mut Calibration) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let jobs = match mode {
        Mode::InProcess => WORKERS,
        Mode::Proc => 1,
    };

    // Set-up: the expected bytes for this seed plus one checked warm-up
    // iteration, repeated so `setup_s` is a median.
    let mut setup_s = Vec::new();
    let mut reference = String::new();
    let mut expected_counts = None;
    for _ in 0..SETUP_REPEATS {
        let steal = StealMeter::start();
        let start = Instant::now();
        reference = reference_json(args.seed)?;
        let warm = untraced(mode, args.seed, jobs)?;
        if warm.json != reference {
            return Err("warm-up iteration differs from the serial in-process run".to_string());
        }
        expected_counts = Some(warm.counts);
        setup_s.push(Window {
            ops: start.elapsed().as_secs_f64(),
            calibration: Vec::new(),
            steal: steal.share(),
        });
    }
    let expected_counts = expected_counts.expect("set-up ran");

    let check = |out: &mut Outcome, json: &str, counts: Counts, redispatches: u64| {
        let ok = json == reference && counts == expected_counts && redispatches == 0;
        if json != reference {
            eprintln!("error: measurement JSON differs from the expected bytes");
        }
        if counts != expected_counts {
            eprintln!("error: counts {counts:?} differ from the first run's {expected_counts:?}");
        }
        out.record(ok);
    };

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut sweeps_ms = Vec::new();
    let mut last_report = None;
    if !args.trace {
        let run_start = Instant::now();
        let mut windows = Vec::new();
        while Instant::now() < deadline || windows.is_empty() {
            let steal = StealMeter::start();
            let window_start = Instant::now();
            let mut window_ms = Vec::new();
            while window_start.elapsed() < WINDOW || window_ms.is_empty() {
                let it = untraced(mode, args.seed, jobs)?;
                check(&mut out, &it.json, it.counts, it.redispatches);
                window_ms.push(it.wall_ms);
                last_report = Some(it.report);
            }
            windows.push(Window {
                ops: window_ms,
                calibration: calibration.keep_share(run_start.elapsed()),
                steal: steal.share(),
            });
        }
        let calm = calmer_half(&windows);
        sweeps_ms = calm.iter().flat_map(|w| w.ops.iter().copied()).collect();
        EndToEnd {
            setup_s: calm_median(&setup_s),
            op_p50_ms: median(&sweeps_ms),
            op_tail_ms: quantile(&sweeps_ms, mode.tail_quantile()),
            ops_per_s: 1e3 * sweeps_ms.len() as f64 / sweeps_ms.iter().sum::<f64>(),
            peak_rss_mb: crate::stats::peak_rss_mb() - Calibration::FOOTPRINT_MB,
        }
        .record(
            &mut out,
            calibration.factor(&calibration_samples(&calm)),
            &steal_summary(&windows),
        );
    } else {
        // Rounds interleave the untraced sharded run (load balance), the
        // untraced run in the traced configuration (overhead baseline) and
        // the traced run, so machine drift hits all three alike.
        let mut idle_ms = Vec::new();
        let mut cell_max_ms = Vec::new();
        let mut ledgers = Vec::new();
        while Instant::now() < deadline || ledgers.is_empty() {
            let it = untraced(mode, args.seed, jobs)?;
            check(&mut out, &it.json, it.counts, it.redispatches);
            let t = &it.report.timing;
            idle_ms.push((t.jobs as f64 * t.total_wall_ns - t.run_wall_ns) / 1e6);
            cell_max_ms.push(t.cell_wall_ns.iter().fold(0.0, |m: f64, &w| m.max(w / 1e6)));
            if mode == Mode::InProcess {
                let serial = untraced(mode, args.seed, 1)?;
                check(&mut out, &serial.json, serial.counts, serial.redispatches);
                sweeps_ms.push(serial.wall_ms);
            } else {
                sweeps_ms.push(it.wall_ms);
            }
            let ledger = traced(mode, args.seed)?;
            check(&mut out, &ledger.json, ledger.counts, ledger.redispatches);
            ledgers.push(ledger);
            last_report = Some(it.report);
        }
        let med = |f: &dyn Fn(&Ledger) -> f64| median(&ledgers.iter().map(f).collect::<Vec<_>>());
        for (name, _) in &ledgers[0].layers {
            out.set(name, med(&|l| l.layer(name)));
        }
        let counts = ledgers[0].counts;
        out.set("kernels.spec_builds", counts.spec_builds as f64);
        out.set("graph.partition_windows", counts.partition_windows as f64);
        out.set("proc.spec_transfers", counts.spec_transfers as f64);
        out.set(
            "proc.redispatches",
            ledgers.iter().map(|l| l.redispatches).sum::<u64>() as f64,
        );
        if counts.partition_windows > 0 {
            out.set(
                "graph.partition_us_per_window",
                med(&|l| 1e3 * l.layer("graph.partition_ms") / counts.partition_windows as f64),
            );
        }
        out.set(
            "runtime.simulate_ns_per_task",
            med(&|l| 1e6 * l.layer("runtime.simulate_ms") / l.tasks.max(1) as f64),
        );
        out.set("runtime.report_bytes", reference.len() as f64);
        out.set("runtime.shard_idle_ms", median(&idle_ms));
        out.set("runtime.cell_ms_max", median(&cell_max_ms));
        out.set("ledger.wall_ms", med(&|l| l.wall_ms));
        out.set(
            "ledger.unattributed_pct",
            med(&|l| 100.0 * l.unattributed_ms() / l.wall_ms),
        );
        out.set(
            "trace.overhead_ms",
            med(&|l| l.wall_ms) - median(&sweeps_ms),
        );
        if mode == Mode::Proc {
            let mut codec = Vec::new();
            for _ in 0..SETUP_REPEATS {
                codec.push(spec_codec(args.seed)?);
            }
            // Every transfer encodes on the coordinator and decodes on a
            // worker; scale the one-copy cost by transfers per spec.
            let per_spec = counts.spec_transfers as f64 / Application::all().len() as f64;
            out.set(
                "proc.spec_encode_ms",
                per_spec * median(&codec.iter().map(|c| c.0).collect::<Vec<_>>()),
            );
            out.set(
                "proc.spec_decode_ms",
                per_spec * median(&codec.iter().map(|c| c.1).collect::<Vec<_>>()),
            );
            out.set("proc.spec_bytes", per_spec * codec[0].2 as f64);
        }
    }

    if let Some(report) = last_report {
        eprintln!(
            "{}: seed {:#x}, {} sweeps, RGP+LAS:prop=repart geomean {:.3} (paper RGP+LAS: {PAPER_GEOMEAN}, error {:+.1}%)",
            args.workload,
            args.seed,
            out.attempted,
            repart_geomean(&report),
            100.0 * (repart_geomean(&report) / PAPER_GEOMEAN - 1.0),
        );
    }
    Ok(out)
}

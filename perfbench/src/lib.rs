//! The numadag performance benchmark.
//!
//! Three workloads drive the repository's crates from outside, through their
//! public APIs: the paper's Figure 1 at Full scale in-process
//! ([`sweep`], `figure1_full`), the same sweep through the multi-process
//! backend (`proc_full`), and mixed traffic against an in-process sweep
//! daemon ([`serve`], `serve_mixed`). Every output is checked for
//! correctness. An untraced run (`--trace 0`) reports the end-to-end
//! metrics; a traced run (`--trace 1`) of the same workload times each
//! layer by wrapping calls into it and reports the per-layer metrics. The
//! metric catalogue below is the single list both runs print from; see
//! `README.md` for what each metric means and which end-to-end metric it
//! should move.

pub mod serve;
pub mod stats;
pub mod sweep;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A workload that does not
/// exercise (or cannot observe) a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("kernels.spec_build_ms", "ms"),
    ("kernels.spec_builds", "count"),
    ("runtime.plan_ms", "ms"),
    ("graph.partition_ms", "ms"),
    ("graph.partition_windows", "count"),
    ("graph.partition_us_per_window", "us"),
    ("core.policy_ms", "ms"),
    ("runtime.simulate_ms", "ms"),
    ("runtime.simulate_ns_per_task", "ns"),
    ("runtime.assemble_ms", "ms"),
    ("runtime.serialize_ms", "ms"),
    ("runtime.report_bytes", "bytes"),
    ("runtime.shard_idle_ms", "ms"),
    ("runtime.cell_ms_max", "ms"),
    ("proc.spawn_ms", "ms"),
    ("proc.shutdown_ms", "ms"),
    ("proc.spec_encode_ms", "ms"),
    ("proc.spec_decode_ms", "ms"),
    ("proc.spec_bytes", "bytes"),
    ("proc.spec_transfers", "count"),
    ("proc.wire_ms", "ms"),
    ("proc.redispatches", "count"),
    ("serve.admit_ms", "ms"),
    ("serve.wait_p50_ms", "ms"),
    ("serve.wait_p99_ms", "ms"),
    ("serve.hot_ms", "ms"),
    ("serve.reshape_ms", "ms"),
    ("serve.novel_ms", "ms"),
    ("serve.decode_ms", "ms"),
    ("serve.report_bytes", "bytes"),
    ("serve.requests_hot", "count"),
    ("serve.requests_reshape", "count"),
    ("serve.requests_novel", "count"),
    ("serve.report_cache_hit_ratio", "ratio"),
    ("serve.cell_cache_hit_ratio", "ratio"),
    ("serve.executed_cells", "count"),
    ("serve.hydrated_cells", "count"),
    ("serve.duplicate_cells", "count"),
    ("serve.duplicate_spec_builds", "count"),
    ("serve.evictions", "count"),
    ("serve.coalesced", "count"),
    ("serve.rejected", "count"),
    ("ledger.wall_ms", "ms"),
    ("ledger.unattributed_pct", "%"),
    ("trace.overhead_ms", "ms"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["figure1_full", "proc_full", "serve_mixed"];

/// Times a run repeats its set-up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// Command-line arguments of one benchmark run.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// `false`: end-to-end metrics; `true`: per-layer metrics.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload NAME --seed N --seconds N --trace 0|1`.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut parsed = Args {
            workload: String::new(),
            seed: sweep::BASELINE_SEED,
            seconds: 10.0,
            trace: false,
        };
        let mut i = 0;
        while i < args.len() {
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("{} needs a value", args[i]))?;
            match args[i].as_str() {
                "--workload" => parsed.workload = value.clone(),
                "--seed" => {
                    parsed.seed = value
                        .parse()
                        .map_err(|_| format!("--seed needs an unsigned integer, got {value:?}"))?
                }
                "--seconds" => {
                    parsed.seconds = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| {
                            format!("--seconds needs a positive number, got {value:?}")
                        })?
                }
                "--trace" => {
                    parsed.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace needs 0 or 1, got {other:?}")),
                    }
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
            i += 2;
        }
        if !WORKLOADS.contains(&parsed.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}, got {:?}",
                WORKLOADS.join(", "),
                parsed.workload
            ));
        }
        Ok(parsed)
    }
}

/// The result of one run: the correctness verdict, operation counts and
/// the measured metrics.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations (sweeps or requests) attempted, set-up checks included.
    pub attempted: u64,
    /// Operations that failed or produced wrong output.
    pub failed: u64,
    /// Measured metrics by catalogue name.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Records one metric (must be in [`END_TO_END`] or [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Counts one operation and whether it failed.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The result line: one JSON object with the catalogue's end-to-end
    /// (`trace == false`) or per-layer metrics, in catalogue order.
    /// Per-layer metrics the workload did not record read 0.
    ///
    /// # Panics
    /// Panics if an end-to-end metric was not recorded.
    pub fn to_json_line(&self, trace: bool) -> String {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                let value = match (self.get(name), trace) {
                    (Some(v), _) => v,
                    (None, true) => 0.0,
                    (None, false) => panic!("end-to-end metric {name} was not measured"),
                };
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Pins this process, with every thread and child process it starts
/// later, to the last CPU it may use (CPU 0 takes most device interrupts),
/// through `taskset`. Returns the CPU, or `None` when pinning failed.
///
/// `proc_full` and `serve_mixed` are serial pipelines: coordinator and
/// worker, or client, connection handler and pool worker, take turns. Left
/// free, each hand-off may wake a thread on the other vCPU, and on a shared
/// VM that vCPU is often not running: the hypervisor has lent its time to
/// another guest. Pinned, a hand-off stays on one run queue, and the
/// machine-speed calibration, sampled on the same CPU, sees the same stolen
/// time as the work. On a 2-vCPU VM, pinning cut the CPU time stolen during
/// `serve_mixed` runs from 6–24% to under 4% and its p95 from 2.2–5.6 ms to
/// 1.9–2.0 ms.
pub fn pin_to_one_cpu() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let allowed = status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))?
        .trim();
    let cpu: usize = allowed.rsplit([',', '-']).next()?.parse().ok()?;
    let pinned = std::process::Command::new("taskset")
        .args([
            "-a",
            "-cp",
            &cpu.to_string(),
            &std::process::id().to_string(),
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .ok()?
        .success();
    pinned.then_some(cpu)
}

/// Runs one workload. `proc_full` and `serve_mixed` run pinned to one CPU
/// ([`pin_to_one_cpu`]); `figure1_full` shards over two threads and runs
/// free. The machine-speed calibration is built before anything else, so
/// its buffers are resident for the whole run.
pub fn run(args: &Args) -> Result<Outcome, String> {
    if args.workload != "figure1_full" {
        match pin_to_one_cpu() {
            Some(cpu) => eprintln!("{}: pinned to CPU {cpu}", args.workload),
            None => eprintln!("{}: could not pin to one CPU; running free", args.workload),
        }
    }
    let mut calibration = stats::Calibration::new();
    match args.workload.as_str() {
        "figure1_full" => sweep::run(sweep::Mode::InProcess, args, &mut calibration),
        "proc_full" => sweep::run(sweep::Mode::Proc, args, &mut calibration),
        "serve_mixed" => serve::run(args, &mut calibration),
        other => Err(format!("unknown workload {other:?}")),
    }
}

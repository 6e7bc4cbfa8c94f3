//! `serve_mixed`: mixed sweep traffic against an in-process `numadag-serve`
//! daemon with one pool worker, driven by a closed loop on one client
//! connection that sends its next request only when the previous report
//! arrived. Client, connection handler and pool worker take turns, so at
//! most one of them runs at a time, and the run is pinned to one CPU
//! (`crate::pin_to_one_cpu`): the latencies measure the daemon's service
//! time, not how a shared 2-vCPU machine schedules four busy threads (with
//! two clients and two pool workers the run-to-run spread of the p99 grew
//! past half its median).
//!
//! The request mix, derived from the workload seed, has three classes:
//!
//! * **hot** (~70%): the default Tiny sweep, answered from the report cache;
//! * **reshape** (~20%): a random proper subset of its applications, a new
//!   report shape whose cells are all in the cell cache (hydration plus
//!   report assembly, no execution);
//! * **novel** (~10%): the default sweep under a never-used seed, so its
//!   32 cells execute, fill the caches and push out LRU entries.
//!
//! The run is a sequence of identical **epochs**: boot a fresh daemon,
//! connect, warm up, then each client sends [`EPOCH_ROUNDS`] rounds of
//! [`ROUND`] requests and the daemon shuts down. The daemon keeps a record
//! of every job it ever admitted and slows down as that table grows (see
//! README.md, Known defects), so a time-bounded single daemon would measure
//! a different state on a faster or slower machine. Fixed work per epoch
//! keeps every run measuring the same state.
//!
//! Every hot and reshape report is compared byte for byte with a direct
//! `Experiment` run of the same spec computed during set-up; novel reports
//! are checked on a sample after the measured window. The traced run uses a
//! raw connection speaking the same wire protocol, so it can time admission
//! (send to `Submitted`), queue wait plus execution (`Submitted` to the
//! report line) and `Response::from_line` on the report separately.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use numadag_kernels::{Application, SpecCache};
use numadag_numa::Topology;
use numadag_runtime::framing::{read_frame, write_frame};
use numadag_runtime::CellOutcome;
use numadag_serve::protocol::{Request, Response, ServerStats, SweepSpec, DEFAULT_SEED};
use numadag_serve::server::{serve_with_specs, ServeConfig, ServeHandle};
use numadag_serve::{ClientError, ServeClient};

use crate::stats::{
    calibration_samples, calm_median, calmer_half, median, quantile, steal_summary, timed,
    Calibration, SplitMix, StealMeter, Window,
};
use crate::sweep::EndToEnd;
use crate::{Args, Outcome, SETUP_REPEATS};

/// The committed Tiny baseline: the hot request's expected report.
pub const TINY_BASELINE_JSON: &str = include_str!("../../BENCH_figure1_tiny.json");

/// Client connections.
pub const CONNECTIONS: usize = 1;

/// Daemon pool workers.
pub const POOL: usize = 1;

/// Requests per client per round.
pub const ROUND: usize = 400;

/// Rounds per client per epoch. Every epoch replays the same requests
/// (novel seeds included) against a fresh daemon.
pub const EPOCH_ROUNDS: usize = 5;

/// The latency percentile `op_tail_ms` reports. Novel sweeps are 10% of
/// the requests and the slowest class by far, so p95 is the middle of
/// their latencies, about 100 requests of a 2000-request epoch beyond it.
/// Higher percentiles land on the novel requests a hypervisor stall
/// happened to hit, and measure the stall rather than the daemon.
pub const TAIL_QUANTILE: f64 = 0.95;

/// Every this many novel requests of a client, one is kept for checking.
pub const NOVEL_SAMPLE_EVERY: usize = 8;

/// Cells of one default Tiny sweep (8 applications × 4 policies).
const CELLS_PER_SWEEP: u64 = 32;

/// Novel-seed stream of the warm-up (clients use their index).
const WARM_UP_STREAM: usize = CONNECTIONS;

/// Wire tokens of the applications, in `Application::all()` order.
const APP_TOKENS: [&str; 8] = ["cg", "gs", "ih", "jacobi", "nstream", "qr", "rb", "symm"];

/// Mask of all eight applications: the hot sweep.
const ALL_APPS: u8 = 0xFF;

/// The request classes of the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Class {
    /// Repeat of the default sweep.
    Hot,
    /// Application subset of the default sweep.
    Reshape,
    /// Default sweep under a fresh seed.
    Novel,
}

/// One planned request: its class and application mask (novel requests
/// take their seed when sent).
#[derive(Clone, Copy, Debug)]
pub struct Planned {
    /// Request class.
    pub class: Class,
    /// Bit `i` selects `Application::all()[i]`.
    pub apps: u8,
}

/// The sweep spec of an application mask at `seed`.
pub fn spec_of(apps: u8, seed: u64) -> SweepSpec {
    let tokens: Vec<&str> = (0..8)
        .filter(|bit| apps & (1 << bit) != 0)
        .map(|bit| APP_TOKENS[bit])
        .collect();
    SweepSpec {
        apps: tokens.join(","),
        seed,
        ..SweepSpec::default()
    }
}

/// Requests of each class in one round of one client: 70% hot, 20%
/// reshape, 10% novel. Fixed shares keep the load the same for every seed;
/// the seed picks the order, the subsets and the novel seeds.
pub const ROUND_MIX: [(Class, usize); 3] = [
    (Class::Hot, ROUND * 7 / 10),
    (Class::Reshape, ROUND * 2 / 10),
    (Class::Novel, ROUND / 10),
];

/// The request sequence of one round of `client`, derived from `seed`.
pub fn round_plan(seed: u64, client: usize) -> Vec<Planned> {
    let mut rng = SplitMix::new(seed, 1 + client as u64);
    let mut plan: Vec<Planned> = ROUND_MIX
        .iter()
        .flat_map(|&(class, n)| std::iter::repeat_n(class, n))
        .map(|class| Planned {
            class,
            apps: match class {
                Class::Reshape => 1 + rng.below(u64::from(ALL_APPS) - 1) as u8,
                _ => ALL_APPS,
            },
        })
        .collect();
    for i in (1..plan.len()).rev() {
        plan.swap(i, rng.below(i as u64 + 1) as usize);
    }
    plan
}

/// Per-class request counts of one round of every client.
pub fn round_counts(seed: u64) -> [usize; 3] {
    let mut counts = [0; 3];
    for client in 0..CONNECTIONS {
        for p in round_plan(seed, client) {
            counts[p.class as usize] += 1;
        }
    }
    counts
}

/// A stream of never-repeating novel seeds.
///
/// Seeds stay below 2^53: the sweep service carries `SweepSpec::seed` as a
/// JSON double, so larger seeds arrive rounded and the served report no
/// longer matches a direct run at the requested seed (a known defect of the
/// wire protocol, recorded in README.md).
fn novel_seeds(seed: u64, stream: usize) -> impl FnMut() -> u64 {
    let mut rng = SplitMix::new(seed, 100 + stream as u64);
    move || loop {
        let s = rng.next_u64() >> 11;
        if s != DEFAULT_SEED {
            return s;
        }
    }
}

/// A direct (daemon-free) run of `spec`.
fn direct_json(spec: &SweepSpec, specs: &Arc<SpecCache>) -> Result<String, String> {
    Ok(spec
        .resolve()?
        .experiment(Topology::bullion_s16(), Arc::clone(specs))
        .run()
        .to_json_string())
}

/// The expected report bytes of every hot and reshape spec: direct runs of
/// all 255 application subsets of the default sweep.
fn expected_reports() -> Result<HashMap<u8, String>, String> {
    for (app, token) in Application::all().iter().zip(APP_TOKENS) {
        if token.parse::<Application>() != Ok(*app) {
            return Err(format!("application token {token} does not name {app:?}"));
        }
    }
    let specs = Arc::new(SpecCache::new());
    let expected = (1..=ALL_APPS)
        .map(|apps| Ok((apps, direct_json(&spec_of(apps, DEFAULT_SEED), &specs)?)))
        .collect::<Result<HashMap<_, _>, String>>()?;
    if expected[&ALL_APPS] != TINY_BASELINE_JSON {
        return Err("direct default sweep differs from BENCH_figure1_tiny.json".to_string());
    }
    Ok(expected)
}

/// Boots a daemon, connects the clients and warms up: the hot sweep
/// executes once, then each client sends one request of every class. The
/// warm-up's novel reports join `novel`, to be checked with the rest.
fn boot(
    seed: u64,
    traced: bool,
    expected: &HashMap<u8, String>,
    novel: &mut Vec<(u64, String)>,
) -> Result<(ServeHandle, Vec<Box<dyn Submitter>>), String> {
    let handle = serve_with_specs(
        ServeConfig {
            pool: POOL,
            ..ServeConfig::default()
        },
        Arc::new(SpecCache::new()),
    )
    .map_err(|e| format!("cannot start the daemon: {e}"))?;
    let addr = handle.addr().to_string();
    let mut clients = (0..CONNECTIONS)
        .map(|_| -> Result<Box<dyn Submitter>, String> {
            Ok(if traced {
                Box::new(RawClient::connect(&addr)?)
            } else {
                Box::new(
                    ServeClient::connect_with_timeout(&addr, Duration::from_secs(60))
                        .map_err(|e| format!("cannot connect: {e}"))?,
                )
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut fresh = novel_seeds(seed, WARM_UP_STREAM);
    for (index, client) in clients.iter_mut().enumerate() {
        let reshape = round_plan(seed, index)
            .iter()
            .find(|p| p.class == Class::Reshape)
            .map_or(1, |p| p.apps);
        for apps in [ALL_APPS, reshape] {
            let (json, _) = client.submit(spec_of(apps, DEFAULT_SEED))?;
            if json != expected[&apps] {
                return Err(format!(
                    "warm-up report for apps {apps:#04x} differs from the direct run"
                ));
            }
        }
        let novel_seed = fresh();
        novel.push((novel_seed, client.submit(spec_of(ALL_APPS, novel_seed))?.0));
    }
    Ok((handle, clients))
}

/// What one epoch measured.
struct Epoch {
    log: ClientLog,
    /// Wall time of the load phase (s).
    load_s: f64,
    /// Server counters after the warm-up and after the load.
    stats: (ServerStats, ServerStats),
}

/// Runs one epoch: boot, warm up, load, shut down.
fn epoch(seed: u64, traced: bool, expected: &HashMap<u8, String>) -> Result<Epoch, String> {
    let mut warm_novel = Vec::new();
    let (handle, mut clients) = boot(seed, traced, expected, &mut warm_novel)?;
    let before = clients[0].stats()?;
    let (mut log, load_s) = drive(&mut clients, seed, expected);
    let after = clients[0].stats()?;
    drop(clients);
    handle.shutdown();
    handle.join();
    log.novel_checks.extend(warm_novel);
    Ok(Epoch {
        log,
        load_s,
        stats: (before, after),
    })
}

/// One completed request as a client saw it.
#[derive(Clone, Copy, Debug, Default)]
struct Sample {
    total_ms: f64,
    admit_ms: f64,
    wait_ms: f64,
    decode_ms: f64,
    report_bytes: usize,
}

/// What one client thread measured.
#[derive(Default)]
struct ClientLog {
    samples: Vec<(Class, Sample)>,
    novel_checks: Vec<(u64, String)>,
    attempted: u64,
    failed: u64,
}

impl ClientLog {
    fn absorb(&mut self, other: ClientLog) {
        self.samples.extend(other.samples);
        self.novel_checks.extend(other.novel_checks);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// How a client sends a request: through `ServeClient::submit` (untraced)
/// or a raw connection timing each phase (traced).
trait Submitter: Send {
    fn submit(&mut self, spec: SweepSpec) -> Result<(String, Sample), String>;
    fn stats(&mut self) -> Result<ServerStats, String>;
}

impl Submitter for ServeClient {
    fn submit(&mut self, spec: SweepSpec) -> Result<(String, Sample), String> {
        let (outcome, total_ms) = timed(|| ServeClient::submit(self, spec, false, |_| ()));
        let report = outcome.map_err(|e: ClientError| e.to_string())?;
        Ok((
            report.report_json,
            Sample {
                total_ms,
                ..Sample::default()
            },
        ))
    }

    fn stats(&mut self) -> Result<ServerStats, String> {
        ServeClient::stats(self).map_err(|e| e.to_string())
    }
}

/// A connection speaking the wire protocol directly: the same frames
/// `ServeClient` exchanges, with each phase timed.
struct RawClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl RawClient {
    fn connect(addr: &str) -> Result<RawClient, String> {
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream
            .set_nodelay(true)
            .and_then(|_| stream.set_read_timeout(Some(Duration::from_secs(60))))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(RawClient {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn line(&mut self) -> Result<String, String> {
        match read_frame(&mut self.reader) {
            Ok(Some(line)) => Ok(line),
            Ok(None) => Err("server closed the connection".to_string()),
            Err(e) => Err(format!("bad frame: {e}")),
        }
    }
}

impl Submitter for RawClient {
    fn submit(&mut self, spec: SweepSpec) -> Result<(String, Sample), String> {
        let start = Instant::now();
        write_frame(
            &mut self.writer,
            &Request::SubmitSweep {
                spec,
                stream: false,
            },
        )
        .map_err(|e| e.to_string())?;
        match Response::from_line(&self.line()?)? {
            Response::Submitted { .. } => {}
            other => return Err(format!("expected Submitted, got {other:?}")),
        }
        let admitted = Instant::now();
        let line = self.line()?;
        let arrived = Instant::now();
        let (response, decode_ms) = timed(|| Response::from_line(&line));
        let total_ms = start.elapsed().as_secs_f64() * 1e3;
        match response? {
            Response::Report { report_json, .. } => {
                let sample = Sample {
                    total_ms,
                    admit_ms: (admitted - start).as_secs_f64() * 1e3,
                    wait_ms: (arrived - admitted).as_secs_f64() * 1e3,
                    decode_ms,
                    report_bytes: report_json.len(),
                };
                Ok((report_json, sample))
            }
            other => Err(format!("expected Report, got {other:?}")),
        }
    }

    fn stats(&mut self) -> Result<ServerStats, String> {
        write_frame(&mut self.writer, &Request::Stats).map_err(|e| e.to_string())?;
        match Response::from_line(&self.line()?)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(format!("expected Stats, got {other:?}")),
        }
    }
}

/// Runs one client's closed loop: [`EPOCH_ROUNDS`] rounds of its plan,
/// each novel request under the next seed of the client's stream.
fn client_loop(
    client: &mut dyn Submitter,
    seed: u64,
    index: usize,
    expected: &HashMap<u8, String>,
) -> ClientLog {
    let plan = round_plan(seed, index);
    let mut next_novel = novel_seeds(seed, index);
    let mut log = ClientLog::default();
    let mut novel_count = 0;
    for p in plan.iter().cycle().take(EPOCH_ROUNDS * ROUND) {
        let spec_seed = match p.class {
            Class::Novel => next_novel(),
            _ => DEFAULT_SEED,
        };
        log.attempted += 1;
        match client.submit(spec_of(p.apps, spec_seed)) {
            Ok((json, sample)) => {
                let ok = match p.class {
                    Class::Novel => {
                        if novel_count % NOVEL_SAMPLE_EVERY == 0 {
                            log.novel_checks.push((spec_seed, json));
                        }
                        novel_count += 1;
                        true
                    }
                    _ => json == expected[&p.apps],
                };
                if !ok {
                    eprintln!(
                        "error: {:?} report for apps {:#04x} differs from the direct run",
                        p.class, p.apps
                    );
                    log.failed += 1;
                }
                log.samples.push((p.class, sample));
            }
            Err(e) => {
                eprintln!("error: request failed: {e}");
                log.failed += 1;
            }
        }
    }
    log
}

/// Runs every client's loop concurrently; returns the merged log and the
/// load's wall time (s).
fn drive(
    clients: &mut [Box<dyn Submitter>],
    seed: u64,
    expected: &HashMap<u8, String>,
) -> (ClientLog, f64) {
    let start = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| scope.spawn(move || client_loop(client.as_mut(), seed, i, expected)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let load_s = start.elapsed().as_secs_f64();
    let mut merged = ClientLog::default();
    for log in logs {
        merged.absorb(log);
    }
    (merged, load_s)
}

/// Checks the sampled novel reports against direct runs (one per distinct
/// seed: every epoch replays the same seeds); returns how many differ.
fn check_novel(checks: &[(u64, String)]) -> Result<u64, String> {
    let specs = Arc::new(SpecCache::new());
    let mut direct: HashMap<u64, String> = HashMap::new();
    let mut wrong = 0;
    for (seed, json) in checks {
        if !direct.contains_key(seed) {
            direct.insert(*seed, direct_json(&spec_of(ALL_APPS, *seed), &specs)?);
        }
        if direct[seed] != *json {
            eprintln!("error: novel report for seed {seed:#x} differs from the direct run");
            wrong += 1;
        }
    }
    Ok(wrong)
}

/// `f` of every sample of `class` (of every class when `None`).
fn totals(
    samples: &[(Class, Sample)],
    class: Option<Class>,
    f: impl Fn(&Sample) -> f64,
) -> Vec<f64> {
    samples
        .iter()
        .filter(|(c, _)| class.is_none_or(|want| *c == want))
        .map(|(_, s)| f(s))
        .collect()
}

/// Report assembly and serialization cost of the reshape class, measured by
/// replaying what the daemon does for a hydrated request: plan the subset,
/// assemble it from the hot sweep's cell outcomes, serialize. Returns
/// median `(assemble_ms, serialize_ms, report_bytes)`.
fn reshape_assembly(seed: u64, expected: &HashMap<u8, String>) -> Result<(f64, f64, f64), String> {
    let specs = Arc::new(SpecCache::new());
    let topology = Topology::bullion_s16();
    let hot = spec_of(ALL_APPS, DEFAULT_SEED).resolve()?;
    let hot_plan = hot.experiment(topology.clone(), Arc::clone(&specs)).plan();
    let executor = hot_plan.executor();
    let hot_cells: Vec<CellOutcome> = (0..hot_plan.num_jobs())
        .map(|i| hot_plan.run_cell(i, executor.as_ref()))
        .collect();
    let columns = hot_plan.policies().len();
    let (mut assemble, mut serialize, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    let reshapes = round_plan(seed, 0)
        .into_iter()
        .filter(|p| p.class == Class::Reshape);
    for p in reshapes {
        let resolved = spec_of(p.apps, DEFAULT_SEED).resolve()?;
        let plan = resolved
            .experiment(topology.clone(), Arc::clone(&specs))
            .plan();
        let outcomes = (0..plan.num_jobs())
            .map(|i| {
                let job = plan.job_at(i);
                let app = Application::all()
                    .iter()
                    .position(|a| *a == resolved.apps[job.workload])
                    .expect("subset apps come from the suite");
                hot_cells[app * columns + job.policy_slot].clone()
            })
            .collect();
        let (report, t) = timed(|| plan.assemble_report(outcomes, 1, Duration::ZERO));
        assemble.push(t);
        let (json, t) = timed(|| report.to_json_string());
        serialize.push(t);
        if json != expected[&p.apps] {
            return Err(format!(
                "reassembled reshape {:#04x} differs from the direct run",
                p.apps
            ));
        }
        bytes.push(json.len() as f64);
    }
    Ok((median(&assemble), median(&serialize), median(&bytes)))
}

/// Runs epochs until `seconds` have passed (at least one), each a
/// measurement [`Window`], sampling the calibration after each epoch when
/// given one. Also returns the peak RSS after the first epoch (MiB,
/// calibration buffers excluded): later epochs boot fresh daemons whose
/// threads land in further allocator arenas, so the process peak keeps
/// creeping with the epoch count rather than with the work of one epoch.
fn epochs(
    args: &Args,
    traced: bool,
    seconds: f64,
    expected: &HashMap<u8, String>,
    mut calibration: Option<&mut Calibration>,
) -> Result<(Vec<Window<Epoch>>, f64), String> {
    let start = Instant::now();
    let mut done = Vec::new();
    let mut peak_rss_mb = 0.0;
    while done.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let steal = StealMeter::start();
        let e = epoch(args.seed, traced, expected)?;
        if done.is_empty() {
            peak_rss_mb = crate::stats::peak_rss_mb() - Calibration::FOOTPRINT_MB;
        }
        let samples = match calibration.as_deref_mut() {
            Some(calibration) => calibration.keep_share(start.elapsed()),
            None => Vec::new(),
        };
        done.push(Window {
            ops: e,
            calibration: samples,
            steal: steal.share(),
        });
    }
    Ok((done, peak_rss_mb))
}

/// Moves the epochs' logs into one, checks the sampled novel reports and
/// counts every request into `out`.
fn tally(out: &mut Outcome, epochs: &mut [Window<Epoch>]) -> Result<ClientLog, String> {
    let mut log = ClientLog::default();
    for epoch in epochs {
        log.absorb(std::mem::take(&mut epoch.ops.log));
    }
    out.attempted += log.attempted;
    out.failed += log.failed + check_novel(&log.novel_checks)?;
    Ok(log)
}

/// Runs `serve_mixed` for `args.seconds` and returns its metrics.
pub fn run(args: &Args, calibration: &mut Calibration) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Set-up: the expected reports, then a daemon booted and warmed up.
    let mut setup_s = Vec::new();
    let mut expected = HashMap::new();
    for _ in 0..SETUP_REPEATS {
        let steal = StealMeter::start();
        let start = Instant::now();
        expected = expected_reports()?;
        let mut warm_novel = Vec::new();
        let (handle, clients) = boot(args.seed, false, &expected, &mut warm_novel)?;
        setup_s.push(Window {
            ops: start.elapsed().as_secs_f64(),
            calibration: Vec::new(),
            steal: steal.share(),
        });
        drop(clients);
        handle.shutdown();
        handle.join();
        out.failed += check_novel(&warm_novel)?;
    }
    let counts = round_counts(args.seed);

    if !args.trace {
        let (mut done, peak_rss_mb) =
            epochs(args, false, args.seconds, &expected, Some(calibration))?;
        // Every figure comes from the calmer half of the epochs. Tail and
        // throughput are medians over those epochs, which keeps one
        // disturbed epoch from moving the run's figure.
        let calm = calmer_half(&done);
        let per_epoch =
            |f: &dyn Fn(&Epoch) -> f64| median(&calm.iter().map(|w| f(&w.ops)).collect::<Vec<_>>());
        let op_tail_ms =
            per_epoch(&|e| quantile(&totals(&e.log.samples, None, |s| s.total_ms), TAIL_QUANTILE));
        let op_p50_ms = median(
            &calm
                .iter()
                .flat_map(|w| totals(&w.ops.log.samples, None, |s| s.total_ms))
                .collect::<Vec<_>>(),
        );
        let ops_per_s = per_epoch(&|e| e.log.samples.len() as f64 / e.load_s);
        let scale = calibration.factor(&calibration_samples(&calm));
        let steal = steal_summary(&done);
        tally(&mut out, &mut done)?;
        EndToEnd {
            setup_s: calm_median(&setup_s),
            op_p50_ms,
            op_tail_ms,
            ops_per_s,
            peak_rss_mb,
        }
        .record(&mut out, scale, &steal);
    } else {
        // Half the window untraced (the overhead baseline), half traced.
        let (mut baseline, _) = epochs(args, false, args.seconds / 2.0, &expected, None)?;
        let baseline = tally(&mut out, &mut baseline)?;
        let (mut done, _) = epochs(args, true, args.seconds / 2.0, &expected, None)?;
        let log = tally(&mut out, &mut done)?;

        let s = &log.samples;
        out.set("serve.admit_ms", median(&totals(s, None, |x| x.admit_ms)));
        let waits = totals(s, None, |x| x.wait_ms);
        out.set("serve.wait_p50_ms", median(&waits));
        out.set("serve.wait_p99_ms", quantile(&waits, 0.99));
        out.set(
            "serve.hot_ms",
            median(&totals(s, Some(Class::Hot), |x| x.total_ms)),
        );
        out.set(
            "serve.reshape_ms",
            median(&totals(s, Some(Class::Reshape), |x| x.total_ms)),
        );
        out.set(
            "serve.novel_ms",
            median(&totals(s, Some(Class::Novel), |x| x.total_ms)),
        );
        out.set("serve.decode_ms", median(&totals(s, None, |x| x.decode_ms)));
        out.set(
            "serve.report_bytes",
            median(&totals(s, None, |x| x.report_bytes as f64)),
        );
        out.set("serve.requests_hot", counts[Class::Hot as usize] as f64);
        out.set(
            "serve.requests_reshape",
            counts[Class::Reshape as usize] as f64,
        );
        out.set("serve.requests_novel", counts[Class::Novel as usize] as f64);

        // Server counters, summed over the epochs' load phases.
        let d = |f: fn(&ServerStats) -> u64| -> f64 {
            done.iter()
                .map(|e| f(&e.ops.stats.1).saturating_sub(f(&e.ops.stats.0)) as f64)
                .sum()
        };
        let ratio = |hits: f64, misses: f64| {
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            }
        };
        out.set(
            "serve.report_cache_hit_ratio",
            ratio(d(|s| s.report_cache_hits), d(|s| s.report_cache_misses)),
        );
        out.set(
            "serve.cell_cache_hit_ratio",
            ratio(d(|s| s.cell_cache_hits), d(|s| s.cell_cache_misses)),
        );
        let novel_done = totals(s, Some(Class::Novel), |x| x.total_ms).len() as f64;
        out.set("serve.executed_cells", d(|s| s.executed_cells_total));
        out.set("serve.hydrated_cells", d(|s| s.cells_hydrated_total));
        out.set(
            "serve.duplicate_cells",
            d(|s| s.executed_cells_total) - CELLS_PER_SWEEP as f64 * novel_done,
        );
        out.set(
            "serve.duplicate_spec_builds",
            done.iter()
                .map(|e| {
                    e.ops
                        .stats
                        .1
                        .spec_cache_builds
                        .saturating_sub(e.ops.stats.1.spec_cache_entries) as f64
                })
                .sum(),
        );
        out.set(
            "serve.evictions",
            d(|s| s.report_cache_evictions) + d(|s| s.cell_cache_evictions),
        );
        out.set("serve.coalesced", d(|s| s.jobs_coalesced));
        out.set("serve.rejected", d(|s| s.jobs_rejected));
        out.set("kernels.spec_builds", d(|s| s.spec_cache_builds));
        out.set(
            "trace.overhead_ms",
            median(&totals(s, None, |x| x.total_ms))
                - median(&totals(&baseline.samples, None, |x| x.total_ms)),
        );

        let (assemble, serialize, bytes) = reshape_assembly(args.seed, &expected)?;
        out.set("runtime.assemble_ms", assemble);
        out.set("runtime.serialize_ms", serialize);
        out.set("runtime.report_bytes", bytes);
    }

    eprintln!(
        "serve_mixed: seed {:#x}, {} requests ({} failed), per-round classes hot/reshape/novel = {}/{}/{}",
        args.seed, out.attempted, out.failed, counts[0], counts[1], counts[2],
    );
    Ok(out)
}

//! Worker-process side of the proc backend.
//!
//! A worker is the same executable as the coordinator, re-entered through
//! [`crate::maybe_run_worker`]: the pool self-execs `current_exe()` with a
//! `--proc-worker` argument and passes the coordinator's socket address via
//! the environment. The worker connects back, introduces itself with
//! `Hello`, and then serves a simple request loop — `Config`, `Spec`,
//! `Assign`, `Barrier`, `Shutdown` — until the coordinator closes the
//! conversation. All randomness comes from the seeds in the messages, so a
//! cell executed here is byte-identical to the same cell executed by an
//! in-process [`Simulator`].

use std::collections::HashMap;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Arc;

use numadag_core::{make_policy, PolicyKind};
use numadag_runtime::framing::{read_frame, write_frame, FrameError};
use numadag_runtime::{ExecutionConfig, ExecutionReport, Simulator};
use numadag_tdg::TaskGraphSpec;
use numadag_trace::{MemorySink, TraceEvent};

use crate::protocol::{Assignment, Done, FromWorker, ToWorker};

/// Environment variable carrying the coordinator's `host:port`.
pub const CONNECT_ENV: &str = "NUMADAG_PROC_CONNECT";
/// Environment variable carrying this worker's numeric id.
pub const WORKER_ENV: &str = "NUMADAG_PROC_WORKER";
/// The argv flag the pool appends to re-enter the executable as a worker.
pub const WORKER_FLAG: &str = "--proc-worker";

/// Fault injection (tests only): exit the process hard on assignment
/// `N + 1`, before any reply, simulating a mid-cell crash.
pub const CRASH_AFTER_ENV: &str = "NUMADAG_PROC_CRASH_AFTER";
/// Fault injection (tests only): restrict [`CRASH_AFTER_ENV`] /
/// [`GARBAGE_AFTER_ENV`] to the worker with this id.
pub const CRASH_WORKER_ENV: &str = "NUMADAG_PROC_CRASH_WORKER";
/// Fault injection (tests only): on assignment `N + 1`, write a line that is
/// not valid JSON instead of the `done` reply.
pub const GARBAGE_AFTER_ENV: &str = "NUMADAG_PROC_GARBAGE_AFTER";

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

struct FaultPlan {
    crash_after: Option<u64>,
    garbage_after: Option<u64>,
}

impl FaultPlan {
    fn from_env(worker: u64) -> FaultPlan {
        let applies = match env_u64(CRASH_WORKER_ENV) {
            Some(target) => target == worker,
            None => true,
        };
        FaultPlan {
            crash_after: env_u64(CRASH_AFTER_ENV).filter(|_| applies),
            garbage_after: env_u64(GARBAGE_AFTER_ENV).filter(|_| applies),
        }
    }
}

/// Runs the worker loop, connecting to the address in [`CONNECT_ENV`].
/// Returns when the coordinator sends `shutdown` or closes the socket;
/// errors are connection-level failures (protocol-level problems are
/// reported back to the coordinator as `error` messages instead).
pub fn run_worker_from_env() -> Result<(), String> {
    let addr = std::env::var(CONNECT_ENV)
        .map_err(|_| format!("{CONNECT_ENV} is not set: not launched by a worker pool"))?;
    let worker =
        env_u64(WORKER_ENV).ok_or_else(|| format!("{WORKER_ENV} is not set or not a number"))?;
    let stream = TcpStream::connect(&addr)
        .map_err(|e| format!("worker {worker}: cannot connect to coordinator {addr}: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("worker {worker}: set_nodelay failed: {e}"))?;
    let writer = stream
        .try_clone()
        .map_err(|e| format!("worker {worker}: cannot clone socket: {e}"))?;
    run_worker(
        worker,
        BufReader::new(stream),
        writer,
        FaultPlan::from_env(worker),
    )
    .map_err(|e| format!("worker {worker}: {e}"))
}

fn run_worker(
    worker: u64,
    mut reader: BufReader<TcpStream>,
    mut writer: TcpStream,
    faults: FaultPlan,
) -> Result<(), String> {
    use std::io::Write as _;

    let send = |writer: &mut TcpStream, message: FromWorker| -> Result<(), String> {
        write_frame(writer, &message).map_err(|e| format!("write to coordinator failed: {e}"))
    };
    let error = |message: String| FromWorker::Error { message };

    let pid = u64::from(std::process::id());
    send(&mut writer, FromWorker::Hello { worker, pid })?;

    let mut base_config: Option<ExecutionConfig> = None;
    let mut specs: HashMap<u64, TaskGraphSpec> = HashMap::new();
    // Specs that failed to rebuild, with the reason. A spec message has no
    // reply of its own, so the error answers each assignment that names
    // the spec: one reply per assignment keeps the conversation in step.
    let mut rejected: HashMap<u64, String> = HashMap::new();
    let mut assigns_seen: u64 = 0;

    loop {
        let line = match read_frame(&mut reader) {
            Ok(Some(line)) => line,
            // Coordinator gone (clean close either way): nothing left to do.
            Ok(None) | Err(FrameError::Io(_)) => return Ok(()),
            Err(e) => {
                // A malformed frame *from the coordinator* is unrecoverable
                // (framing is lost), but say so before going.
                let _ = send(&mut writer, error(format!("bad frame: {e}")));
                return Err(format!("coordinator sent an unreadable frame: {e}"));
            }
        };
        let message = match serde_json::from_str(&line) {
            Ok(message) => message,
            Err(e) => {
                send(&mut writer, error(format!("bad message: {e}")))?;
                continue;
            }
        };
        match message {
            ToWorker::Config(wire) => match wire.to_config() {
                Ok(config) => {
                    base_config = Some(config);
                    send(&mut writer, FromWorker::ConfigAck { epoch: wire.epoch })?;
                }
                Err(e) => send(&mut writer, error(format!("bad config: {e}")))?,
            },
            ToWorker::Spec(wire) => {
                let fp = wire.fp;
                match wire.into_spec() {
                    Ok((fp, spec)) => {
                        specs.insert(fp, spec);
                    }
                    Err(e) => {
                        rejected.insert(fp, format!("bad spec {fp:#x}: {e}"));
                    }
                }
            }
            ToWorker::Assign(assign) => {
                assigns_seen += 1;
                if matches!(faults.crash_after, Some(n) if assigns_seen > n) {
                    // Simulated crash: die without a word, mid-cell.
                    std::process::exit(3);
                }
                let ran = match rejected.get(&assign.spec_fp) {
                    Some(reason) => Err(reason.clone()),
                    None => run_cell(&assign, base_config.as_ref(), &specs),
                };
                let (report, events) = match ran {
                    Ok(ran) => ran,
                    Err(message) => {
                        send(&mut writer, error(message))?;
                        continue;
                    }
                };
                if matches!(faults.garbage_after, Some(n) if assigns_seen > n) {
                    // Simulated corruption: an unparseable line where the
                    // replies should be.
                    writer
                        .write_all(b"{this is not json\n")
                        .map_err(|e| format!("write to coordinator failed: {e}"))?;
                    continue;
                }
                let cell = assign.cell;
                let deferred_bytes = report.deferred_bytes;
                send(
                    &mut writer,
                    FromWorker::DataHome {
                        cell,
                        deferred_bytes,
                    },
                )?;
                let stolen = report.stolen_tasks as u64;
                send(&mut writer, FromWorker::Steal { cell, stolen })?;
                send(
                    &mut writer,
                    FromWorker::Done(Done::new(cell, &report, events)),
                )?;
            }
            ToWorker::Barrier { epoch } => send(&mut writer, FromWorker::BarrierAck { epoch })?,
            ToWorker::Shutdown => return Ok(()),
        }
    }
}

/// Executes one assignment against the shipped config and specs.
fn run_cell(
    assign: &Assignment,
    config: Option<&ExecutionConfig>,
    specs: &HashMap<u64, TaskGraphSpec>,
) -> Result<(ExecutionReport, Vec<TraceEvent>), String> {
    let config = config.ok_or("assign before any config was shipped")?;
    let spec = specs
        .get(&assign.spec_fp)
        .ok_or_else(|| format!("assign references unknown spec {:#x}", assign.spec_fp))?;
    let kind = assign
        .policy
        .parse::<PolicyKind>()
        .map_err(|e| format!("bad policy: {e}"))?;
    let mut policy = make_policy(kind, spec, assign.policy_seed).ok_or_else(|| {
        format!(
            "policy {:?} is unavailable for workload {:?} (no expert placement?)",
            assign.policy, spec.name
        )
    })?;
    let mut cell_config = config.clone();
    if assign.placements {
        cell_config = cell_config.with_trace();
    }
    let sink = assign.events.then(|| Arc::new(MemorySink::new()));
    if let Some(sink) = &sink {
        cell_config = cell_config.with_trace_sink(sink.clone());
    }
    let report = Simulator::new(cell_config).run(spec, policy.as_mut());
    Ok((report, sink.map(|s| s.take()).unwrap_or_default()))
}

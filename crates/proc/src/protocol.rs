//! Wire codec for the coordinator ↔ worker IPC.
//!
//! Every message is one newline-delimited JSON value (the framing itself —
//! line limits, truncation detection, UTF-8 validation — lives in
//! [`numadag_runtime::framing`], shared with the serve protocol). The
//! messages are two derived enums, [`ToWorker`] and [`FromWorker`], in
//! serde's externally tagged encoding: `{"Assign": {...}}`, with unit
//! messages as bare strings (`"Shutdown"`).
//!
//! Numbers cross the wire exactly, which keeps cross-process results
//! byte-identical to in-process runs: integers (u64 byte counters and
//! fingerprints, the u128 distance-weighted traffic) travel as exact JSON
//! integers, and every finite `f64` as its shortest round-trip formatting,
//! which the vendored `serde_json` parses back bit for bit. Bulk data
//! stays compact: a spec travels as flat columns ([`WireSpec`]), a
//! report's links and placements as positional tuples, not objects.

use std::collections::HashMap;
use std::sync::Arc;

use numadag_numa::{CostModel, DistanceMatrix, NodeId, RegionId, SocketId, Topology, TrafficStats};
use numadag_runtime::{ExecutionConfig, ExecutionReport, StealMode, TaskPlacement};
use numadag_tdg::{AccessMode, DataAccess, TaskDescriptor, TaskGraph, TaskGraphSpec, TaskId};
use numadag_trace::TraceEvent;
use serde::{Deserialize, Serialize, Value};

/// Protocol version, sent in every config message. A worker that sees a
/// version it does not speak replies with an error instead of guessing.
pub const PROTOCOL_VERSION: u64 = 3;

/// Coordinator → worker messages.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ToWorker {
    /// The execution config to mirror, sent once per config fingerprint.
    Config(WireConfig),
    /// A workload's full task graph, shipped once per worker.
    Spec(WireSpec),
    /// One cell of work.
    Assign(Assignment),
    /// Collective barrier entry.
    Barrier {
        /// Echoed back in the ack.
        epoch: u64,
    },
    /// Clean exit.
    Shutdown,
}

/// Worker → coordinator messages.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum FromWorker {
    /// Rendezvous right after connecting.
    Hello {
        /// Slot id from the environment.
        worker: u64,
        /// Process id.
        pid: u64,
    },
    /// The config of `epoch` is installed.
    ConfigAck {
        /// The acknowledged config's epoch.
        epoch: u64,
    },
    /// Placement notification for the cell in flight.
    DataHome {
        /// Cell id of the assignment.
        cell: u64,
        /// Bytes the cell placed by deferred allocation (first touch).
        deferred_bytes: u64,
    },
    /// Steal notification for the cell in flight.
    Steal {
        /// Cell id of the assignment.
        cell: u64,
        /// Tasks that ran on a socket other than the policy's.
        stolen: u64,
    },
    /// The cell's report and trace events.
    Done(Done),
    /// Collective barrier exit.
    BarrierAck {
        /// The barrier's epoch.
        epoch: u64,
    },
    /// Structured worker-side failure.
    Error {
        /// What went wrong.
        message: String,
    },
}

/// One cell of work: run `policy` (seeded with `policy_seed`) over the spec
/// identified by `spec_fp` and report back under id `cell`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Assignment {
    /// Coordinator-side cell id, echoed back in the replies.
    pub cell: u64,
    /// Fingerprint of a spec previously shipped with a spec message.
    pub spec_fp: u64,
    /// Canonical policy label ([`numadag_core::PolicyKind`] `FromStr` form).
    pub policy: String,
    /// Seed handed to the policy factory.
    pub policy_seed: u64,
    /// Emit `TraceEvent`s while executing and return them in `Done`.
    pub events: bool,
    /// Collect the per-task placement trace into the report.
    pub placements: bool,
}

/// The full [`ExecutionConfig`] a worker needs to mirror the coordinator's
/// executor, tagged with `epoch` (the config's own fingerprint) so acks can
/// be matched to the config they acknowledge. Trace flags and sink are
/// per-assignment, not part of it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WireConfig {
    /// [`PROTOCOL_VERSION`] of the sender.
    pub version: u64,
    /// The config's fingerprint, echoed in the ack.
    pub epoch: u64,
    /// [`Topology::name`].
    pub machine: String,
    /// Socket count.
    pub sockets: usize,
    /// Cores per socket.
    pub cores: usize,
    /// `sockets × sockets` NUMA distances, row-major.
    pub distances: Vec<u32>,
    /// [`ExecutionConfig::cost_model`]: the [`CostModel`] fields in
    /// declaration order.
    pub cost: (f64, f64, f64, f64, f64, f64),
    /// [`ExecutionConfig::steal`].
    pub steal: StealMode,
    /// [`ExecutionConfig::stage_timing`].
    pub stage_timing: bool,
    /// [`ExecutionConfig::seed`].
    pub seed: u64,
}

impl WireConfig {
    /// The config message for `config` under `epoch`.
    pub fn new(epoch: u64, config: &ExecutionConfig) -> Self {
        let (topo, cost) = (&config.topology, &config.cost_model);
        let n = topo.num_sockets();
        WireConfig {
            version: PROTOCOL_VERSION,
            epoch,
            machine: topo.name().to_string(),
            sockets: n,
            cores: topo.cores_per_socket(),
            distances: (0..n * n)
                .map(|k| topo.distance(NodeId(k / n), NodeId(k % n)))
                .collect(),
            cost: (
                cost.local_bandwidth,
                cost.local_latency,
                cost.bandwidth_exponent,
                cost.latency_exponent,
                cost.contention_factor,
                cost.time_per_work_unit,
            ),
            steal: config.steal,
            stage_timing: config.stage_timing,
            seed: config.seed,
        }
    }

    /// Rebuilds the [`ExecutionConfig`].
    pub fn to_config(&self) -> Result<ExecutionConfig, String> {
        if self.version != PROTOCOL_VERSION {
            return Err(format!(
                "config.version {} is not the supported protocol version {PROTOCOL_VERSION}",
                self.version
            ));
        }
        let n = self.sockets;
        if n.checked_mul(n) != Some(self.distances.len()) {
            return Err(format!(
                "config.distances has {} entries for {n} sockets",
                self.distances.len()
            ));
        }
        let matrix = DistanceMatrix::from_rows(n, self.distances.clone());
        let (
            local_bandwidth,
            local_latency,
            bandwidth_exponent,
            latency_exponent,
            contention_factor,
            time_per_work_unit,
        ) = self.cost;
        let cost = CostModel {
            local_bandwidth,
            local_latency,
            bandwidth_exponent,
            latency_exponent,
            contention_factor,
            time_per_work_unit,
        };
        let mut config = ExecutionConfig::new(Topology::new(&self.machine, n, self.cores, matrix))
            .with_cost_model(cost)
            .with_steal(self.steal)
            .with_seed(self.seed);
        if self.stage_timing {
            config = config.with_stage_timing();
        }
        Ok(config)
    }
}

/// A complete [`TaskGraphSpec`], keyed by its fingerprint, in columns.
///
/// A Full-scale spec has tens of thousands of tasks, so the wire form holds
/// one flat array per field rather than one object per task: a kind table
/// plus a per-task kind index, a work column, and the accesses and
/// dependences as flat integer columns that each task slices through its
/// end offset. The columns hold exactly what the graph holds: dependences
/// are the graph's merged predecessor lists, in order.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WireSpec {
    /// [`TaskGraphSpec::fingerprint`].
    pub fp: u64,
    /// Workload name.
    pub name: String,
    /// Distinct task kind labels, in order of first use.
    pub kinds: Vec<String>,
    /// Per task: its kind, as an index into `kinds`.
    pub kind: Vec<usize>,
    /// Per task: work units.
    pub work: Vec<f64>,
    /// Per task: the end of its accesses in the `access_*` columns (the
    /// start is the previous task's end, or 0).
    pub access_end: Vec<usize>,
    /// Per access: region id.
    pub access_region: Vec<usize>,
    /// Per access: mode, 0 in, 1 out, 2 inout.
    pub access_mode: Vec<u8>,
    /// Per access: bytes.
    pub access_bytes: Vec<u64>,
    /// Per task: the end of its dependences in the `dep_*` columns.
    pub dep_end: Vec<usize>,
    /// Per dependence: the predecessor task.
    pub dep_pred: Vec<usize>,
    /// Per dependence: bytes.
    pub dep_bytes: Vec<u64>,
    /// Region sizes (bytes), indexed by region id.
    pub regions: Vec<u64>,
    /// The expert placement, if the workload has one.
    pub ep: Option<Vec<usize>>,
}

impl WireSpec {
    /// The spec message for `spec`.
    pub fn new(spec: &TaskGraphSpec) -> Self {
        Self::with_fingerprint(spec.fingerprint(), spec)
    }

    /// The spec message for `spec`, whose fingerprint the caller already
    /// knows to be `fp`.
    pub fn with_fingerprint(fp: u64, spec: &TaskGraphSpec) -> Self {
        let graph = &spec.graph;
        let n = graph.num_tasks();
        let num_accesses = graph.tasks().iter().map(|t| t.accesses.len()).sum();
        let mut wire = WireSpec {
            fp,
            name: spec.name.to_string(),
            kinds: Vec::new(),
            kind: Vec::with_capacity(n),
            work: Vec::with_capacity(n),
            access_end: Vec::with_capacity(n),
            access_region: Vec::with_capacity(num_accesses),
            access_mode: Vec::with_capacity(num_accesses),
            access_bytes: Vec::with_capacity(num_accesses),
            dep_end: Vec::with_capacity(n),
            dep_pred: Vec::with_capacity(graph.num_edges()),
            dep_bytes: Vec::with_capacity(graph.num_edges()),
            regions: spec.region_sizes.clone(),
            ep: spec.ep_socket.clone(),
        };
        let mut kind_index: HashMap<&str, usize> = HashMap::new();
        for task in graph.tasks() {
            let next = kind_index.len();
            let kind = *kind_index.entry(task.kind.as_str()).or_insert_with(|| {
                wire.kinds.push(task.kind.clone());
                next
            });
            wire.kind.push(kind);
            wire.work.push(task.work_units);
            for access in &task.accesses {
                wire.access_region.push(access.region.0);
                wire.access_mode.push(access.mode as u8);
                wire.access_bytes.push(access.bytes);
            }
            wire.access_end.push(wire.access_region.len());
            for &(pred, bytes) in graph.predecessors(task.id) {
                wire.dep_pred.push(pred.0);
                wire.dep_bytes.push(bytes);
            }
            wire.dep_end.push(wire.dep_pred.len());
        }
        wire
    }

    /// Checks that the columns describe a well-formed graph: per-task
    /// columns as long as the task list, per-entry columns as long as each
    /// other, offsets that never decrease and end exactly at their
    /// column's end, in-range kind indices, regions and access modes,
    /// dependences only on earlier tasks, and an EP placement covering
    /// every task.
    fn check_shape(&self) -> Result<(), String> {
        let n = self.kind.len();
        for (column, len) in [
            ("work", self.work.len()),
            ("access_end", self.access_end.len()),
            ("dep_end", self.dep_end.len()),
        ] {
            if len != n {
                return Err(format!(
                    "spec.{column} has {len} entries for {n} tasks (spec.kind)"
                ));
            }
        }
        for (column, len, want) in [
            (
                "access_mode",
                self.access_mode.len(),
                self.access_region.len(),
            ),
            (
                "access_bytes",
                self.access_bytes.len(),
                self.access_region.len(),
            ),
            ("dep_bytes", self.dep_bytes.len(), self.dep_pred.len()),
        ] {
            if len != want {
                return Err(format!(
                    "spec.{column} has {len} entries, its sibling columns {want}"
                ));
            }
        }
        for (column, ends, len) in [
            ("access_end", &self.access_end, self.access_region.len()),
            ("dep_end", &self.dep_end, self.dep_pred.len()),
        ] {
            let mut start = 0;
            for (task, &end) in ends.iter().enumerate() {
                if end < start || end > len {
                    return Err(format!(
                        "spec.{column}[{task}]: offset {end} is outside {start}..={len}"
                    ));
                }
                start = end;
            }
            if start != len {
                return Err(format!(
                    "spec.{column} ends at {start}, but its columns hold {len} entries"
                ));
            }
        }
        if let Some(task) = self.kind.iter().position(|&k| k >= self.kinds.len()) {
            return Err(format!(
                "spec.kind[{task}]: kind {} is not below {} (spec.kinds)",
                self.kind[task],
                self.kinds.len()
            ));
        }
        if let Some(i) = self
            .access_region
            .iter()
            .position(|&r| r >= self.regions.len())
        {
            return Err(format!(
                "spec.access_region[{i}]: region {} is not below {} (spec.regions)",
                self.access_region[i],
                self.regions.len()
            ));
        }
        if let Some(i) = self.access_mode.iter().position(|&m| m > 2) {
            return Err(format!(
                "spec.access_mode[{i}]: access mode {} is not 0, 1 or 2",
                self.access_mode[i]
            ));
        }
        let mut start = 0;
        for (task, &end) in self.dep_end.iter().enumerate() {
            if let Some(&pred) = self.dep_pred[start..end].iter().find(|&&p| p >= task) {
                return Err(format!(
                    "spec.dep_pred: task {task} depends on task {pred}, not an earlier one"
                ));
            }
            start = end;
        }
        if let Some(ep) = &self.ep {
            if ep.len() != n {
                return Err(format!("spec.ep has {} entries for {n} tasks", ep.len()));
            }
        }
        Ok(())
    }

    /// Rebuilds the spec. Malformed columns are an error, never a panic;
    /// and the rebuilt spec's own fingerprint must match the advertised one
    /// or the transfer corrupted something.
    pub fn into_spec(self) -> Result<(u64, TaskGraphSpec), String> {
        self.check_shape()?;
        let mut graph = TaskGraph::new();
        let mut deps = Vec::new();
        let (mut access_start, mut dep_start) = (0, 0);
        for (index, ((&kind, &work), (&access_end, &dep_end))) in self
            .kind
            .iter()
            .zip(&self.work)
            .zip(self.access_end.iter().zip(&self.dep_end))
            .enumerate()
        {
            let accesses = (access_start..access_end)
                .map(|i| DataAccess {
                    region: RegionId(self.access_region[i]),
                    mode: match self.access_mode[i] {
                        0 => AccessMode::In,
                        1 => AccessMode::Out,
                        _ => AccessMode::InOut,
                    },
                    bytes: self.access_bytes[i],
                })
                .collect();
            deps.clear();
            deps.extend(
                (dep_start..dep_end).map(|i| (TaskId(self.dep_pred[i]), self.dep_bytes[i])),
            );
            let descriptor = TaskDescriptor {
                id: TaskId(index),
                kind: self.kinds[kind].clone(),
                work_units: work,
                accesses,
            };
            graph.push_task(descriptor, &deps);
            (access_start, dep_start) = (access_end, dep_end);
        }
        let mut spec = TaskGraphSpec::new(self.name, graph, self.regions);
        if let Some(placement) = self.ep {
            spec = spec.with_ep_placement(placement);
        }
        let rebuilt = spec.fingerprint();
        if rebuilt != self.fp {
            return Err(format!(
                "spec fingerprint mismatch: advertised {:#x}, rebuilt {rebuilt:#x}",
                self.fp
            ));
        }
        Ok((self.fp, spec))
    }
}

/// The spec message for `spec`, as a wire value.
pub fn encode_spec(spec: &TaskGraphSpec) -> Value {
    ToWorker::Spec(WireSpec::new(spec)).to_value()
}

/// Decodes a spec message's payload into the advertised fingerprint and the
/// rebuilt spec (see [`WireSpec::into_spec`]).
pub fn decode_spec(payload: &Value) -> Result<(u64, TaskGraphSpec), String> {
    WireSpec::from_value(payload)?.into_spec()
}

/// The `Done` reply: a cell's [`ExecutionReport`] and any collected
/// [`TraceEvent`]s. The report's string labels do not travel (the
/// coordinator re-attaches them from its own policy/workload handles, which
/// is what keeps `policy` a `'static` literal).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Done {
    /// Cell id of the assignment.
    pub cell: u64,
    /// The report.
    pub report: WireReport,
    /// Trace events, if the assignment asked for them.
    pub events: Vec<TraceEvent>,
}

/// An [`ExecutionReport`] without its labels, its traffic flattened in.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WireReport {
    /// [`ExecutionReport::makespan_ns`].
    pub makespan_ns: f64,
    /// [`ExecutionReport::tasks`].
    pub tasks: usize,
    /// [`TrafficStats::local_bytes`].
    pub local_bytes: u64,
    /// [`TrafficStats::remote_bytes`].
    pub remote_bytes: u64,
    /// [`TrafficStats::deferred_allocated_bytes`].
    pub deferred_allocated_bytes: u64,
    /// [`TrafficStats::distance_weighted`].
    pub distance_weighted: u128,
    /// `(from, to, bytes)` per traffic link.
    pub links: Vec<(usize, usize, u64)>,
    /// [`ExecutionReport::tasks_per_socket`].
    pub tasks_per_socket: Vec<usize>,
    /// [`ExecutionReport::busy_per_socket`].
    pub busy_per_socket: Vec<f64>,
    /// [`ExecutionReport::stolen_tasks`].
    pub stolen_tasks: usize,
    /// [`ExecutionReport::deferred_bytes`].
    pub deferred_bytes: u64,
    /// [`ExecutionReport::policy_wall_ns`].
    pub policy_wall_ns: f64,
    /// [`ExecutionReport::event_loop_wall_ns`].
    pub event_loop_wall_ns: f64,
    /// `(task, socket, start, end, stolen)` per placement.
    pub trace: Vec<(usize, usize, f64, f64, bool)>,
}

impl Done {
    /// The reply for `cell`.
    pub fn new(cell: u64, report: &ExecutionReport, events: Vec<TraceEvent>) -> Self {
        let traffic = &report.traffic;
        let report = WireReport {
            makespan_ns: report.makespan_ns,
            tasks: report.tasks,
            local_bytes: traffic.local_bytes,
            remote_bytes: traffic.remote_bytes,
            deferred_allocated_bytes: traffic.deferred_allocated_bytes,
            distance_weighted: traffic.distance_weighted(),
            links: traffic
                .link_entries()
                .map(|((from, to), bytes)| (from, to, bytes))
                .collect(),
            tasks_per_socket: report.tasks_per_socket.clone(),
            busy_per_socket: report.busy_per_socket.clone(),
            stolen_tasks: report.stolen_tasks,
            deferred_bytes: report.deferred_bytes,
            policy_wall_ns: report.policy_wall_ns,
            event_loop_wall_ns: report.event_loop_wall_ns,
            trace: report
                .trace
                .iter()
                .map(|p| (p.task.0, p.socket.0, p.start, p.end, p.stolen))
                .collect(),
        };
        Done {
            cell,
            report,
            events,
        }
    }

    /// The report, labelled with the `workload` and `policy` the coordinator
    /// knows the cell id maps to, and the events.
    pub fn into_report(
        self,
        workload: Arc<str>,
        policy: &'static str,
    ) -> (ExecutionReport, Vec<TraceEvent>) {
        let r = self.report;
        let report = ExecutionReport {
            workload,
            policy,
            makespan_ns: r.makespan_ns,
            tasks: r.tasks,
            traffic: TrafficStats::from_parts(
                r.local_bytes,
                r.remote_bytes,
                r.deferred_allocated_bytes,
                r.links
                    .into_iter()
                    .map(|(from, to, bytes)| ((from, to), bytes)),
                r.distance_weighted,
            ),
            tasks_per_socket: r.tasks_per_socket,
            busy_per_socket: r.busy_per_socket,
            stolen_tasks: r.stolen_tasks,
            deferred_bytes: r.deferred_bytes,
            policy_wall_ns: r.policy_wall_ns,
            event_loop_wall_ns: r.event_loop_wall_ns,
            trace: r
                .trace
                .into_iter()
                .map(|(task, socket, start, end, stolen)| TaskPlacement {
                    task: TaskId(task),
                    socket: SocketId(socket),
                    start,
                    end,
                    stolen,
                })
                .collect(),
        };
        (report, self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numadag_runtime::framing::{to_line, untag};

    fn roundtrip<T: Serialize + Deserialize>(message: &T) -> T {
        serde_json::from_str(&to_line(message)).expect("wire line decodes back")
    }

    fn sample_spec() -> TaskGraphSpec {
        let mut graph = TaskGraph::new();
        let a = graph.push_task(
            TaskDescriptor {
                id: TaskId(0),
                kind: "init".to_string(),
                work_units: 3.5,
                accesses: vec![DataAccess {
                    region: RegionId(0),
                    mode: AccessMode::Out,
                    bytes: 1 << 60,
                }],
            },
            &[],
        );
        graph.push_task(
            TaskDescriptor {
                id: TaskId(1),
                kind: "use".to_string(),
                work_units: 0.25,
                accesses: vec![DataAccess {
                    region: RegionId(0),
                    mode: AccessMode::In,
                    bytes: 4096,
                }],
            },
            &[(a, 4096)],
        );
        TaskGraphSpec::new("wire-spec", graph, vec![1 << 60]).with_ep_placement(vec![1, 0])
    }

    #[test]
    fn config_round_trips_including_multi_node_distances() {
        let config = ExecutionConfig::new(Topology::multi_node(2, 2, 3, 120))
            .with_cost_model(CostModel::steep())
            .with_steal(StealMode::NoStealing)
            .with_seed(0xF1617E_00F1617E)
            .with_stage_timing();
        let message = ToWorker::Config(WireConfig::new(7, &config));
        let ToWorker::Config(wire) = roundtrip(&message) else {
            panic!("expected Config");
        };
        assert_eq!(wire.epoch, 7);
        let decoded = wire.to_config().unwrap();
        assert_eq!(decoded.topology, config.topology);
        assert_eq!(decoded.cost_model, config.cost_model);
        assert_eq!(decoded.steal, config.steal);
        assert_eq!(decoded.seed, config.seed);
        assert!(decoded.stage_timing);
    }

    #[test]
    fn config_of_another_protocol_version_is_refused() {
        let mut wire = WireConfig::new(1, &ExecutionConfig::new(Topology::bullion_s16()));
        wire.version = 1;
        let err = wire.to_config().unwrap_err();
        assert!(err.contains("protocol version"), "{err}");
    }

    #[test]
    fn spec_round_trips_and_fingerprint_is_verified() {
        let spec = sample_spec();
        let wire: Value = serde_json::from_str(&to_line(&encode_spec(&spec))).unwrap();
        let (name, payload) = untag(&wire).unwrap();
        assert_eq!(name, "Spec");
        let (fp, decoded) = decode_spec(payload).unwrap();
        assert_eq!(fp, spec.fingerprint());
        assert_eq!(decoded.fingerprint(), spec.fingerprint());
        assert_eq!(decoded.name, spec.name);
        assert_eq!(decoded.region_sizes, spec.region_sizes);
        assert_eq!(decoded.ep_socket, spec.ep_socket);
        assert_eq!(decoded.graph.num_tasks(), 2);
        assert_eq!(decoded.graph.predecessors(TaskId(1)), &[(TaskId(0), 4096)]);
    }

    #[test]
    fn corrupted_spec_fails_the_fingerprint_check() {
        // Flip one region size while keeping the advertised fingerprint.
        let mut wire = roundtrip(&WireSpec::new(&sample_spec()));
        wire.regions = vec![42];
        let err = wire.into_spec().unwrap_err();
        assert!(err.contains("fingerprint mismatch"), "{err}");
        let mut wire = WireSpec::new(&sample_spec());
        wire.access_mode[0] = 3;
        let err = wire.into_spec().unwrap_err();
        assert!(err.contains("access mode 3"), "{err}");
    }

    #[test]
    fn assignment_round_trips() {
        let message = ToWorker::Assign(Assignment {
            cell: 9000,
            spec_fp: u64::MAX - 3,
            policy: "rgp+las".to_string(),
            policy_seed: 0xF1617E,
            events: true,
            placements: false,
        });
        assert_eq!(roundtrip(&message), message);
    }

    #[test]
    fn control_messages_round_trip() {
        for message in [ToWorker::Barrier { epoch: u64::MAX }, ToWorker::Shutdown] {
            assert_eq!(roundtrip(&message), message);
        }
        assert_eq!(to_line(&ToWorker::Shutdown), "\"Shutdown\"");
        for message in [
            FromWorker::Hello {
                worker: 3,
                pid: 4242,
            },
            FromWorker::ConfigAck { epoch: 5 },
            FromWorker::DataHome {
                cell: 11,
                deferred_bytes: u64::MAX,
            },
            FromWorker::Steal {
                cell: 12,
                stolen: 7,
            },
            FromWorker::BarrierAck { epoch: 2 },
            FromWorker::Error {
                message: "boom".to_string(),
            },
        ] {
            assert_eq!(roundtrip(&message), message);
        }
    }

    #[test]
    fn done_round_trips_a_full_report_bit_exactly() {
        let traffic = TrafficStats::from_parts(
            u64::MAX / 3,
            1 << 61,
            12345,
            vec![((0, 1), 777), ((1, 0), u64::MAX / 5)],
            (u64::MAX as u128) * 27,
        );
        let report = ExecutionReport {
            workload: Arc::from("wire-spec"),
            policy: "RGP+LAS",
            makespan_ns: std::f64::consts::PI * 1e9,
            tasks: 42,
            traffic,
            tasks_per_socket: vec![10, 12, 9, 11],
            busy_per_socket: vec![0.1, 1e300, 3.0000000000000004, 0.0],
            stolen_tasks: 5,
            deferred_bytes: 1 << 55,
            policy_wall_ns: 17.5,
            event_loop_wall_ns: 0.125,
            trace: vec![TaskPlacement {
                task: TaskId(3),
                socket: SocketId(1),
                start: 0.30000000000000004,
                end: 2e-308,
                stolen: true,
            }],
        };
        let events = vec![
            TraceEvent::Assign {
                task: TaskId(3),
                socket: SocketId(1),
                time: 1.5,
            },
            TraceEvent::Finish {
                task: TaskId(3),
                socket: SocketId(1),
                core: numadag_numa::CoreId(5),
                time: 9.75,
            },
        ];
        let message = FromWorker::Done(Done::new(77, &report, events.clone()));
        let FromWorker::Done(done) = roundtrip(&message) else {
            panic!("expected Done");
        };
        assert_eq!(FromWorker::Done(done.clone()), message);
        assert_eq!(done.cell, 77);
        let (decoded, decoded_events) = done.into_report(Arc::from("wire-spec"), "RGP+LAS");
        assert_eq!(decoded_events, events);
        assert_eq!(decoded.workload.as_ref(), "wire-spec");
        assert_eq!(decoded.policy, "RGP+LAS");
        assert_eq!(decoded.makespan_ns.to_bits(), report.makespan_ns.to_bits());
        assert_eq!(decoded.tasks, report.tasks);
        assert_eq!(decoded.traffic.local_bytes, report.traffic.local_bytes);
        assert_eq!(decoded.traffic.remote_bytes, report.traffic.remote_bytes);
        assert_eq!(
            decoded.traffic.distance_weighted(),
            report.traffic.distance_weighted()
        );
        assert_eq!(
            decoded.traffic.link_entries().collect::<Vec<_>>(),
            report.traffic.link_entries().collect::<Vec<_>>()
        );
        assert_eq!(decoded.tasks_per_socket, report.tasks_per_socket);
        for (got, want) in decoded
            .busy_per_socket
            .iter()
            .zip(report.busy_per_socket.iter())
        {
            assert_eq!(got.to_bits(), want.to_bits());
        }
        assert_eq!(decoded.stolen_tasks, report.stolen_tasks);
        assert_eq!(decoded.deferred_bytes, report.deferred_bytes);
        assert_eq!(decoded.trace, report.trace);
    }
}

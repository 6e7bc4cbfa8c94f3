//! Round-trip properties of every wire and report format: what the vendored
//! serde writes, it reads back to the same value, with integers exact
//! across their whole range (u64 seeds, fingerprints and byte counters up to
//! `u64::MAX`, the u128 distance-weighted traffic well past it). A table of
//! malformed inputs checks that each fails with an error naming the field or
//! tag at fault.

use std::sync::Arc;

use proptest::prelude::*;
use serde::{Deserialize, Serialize};

use numadag::kernels::{Application, ProblemScale};
use numadag::numa::{CoreId, CostModel, NodeId, RegionId, SocketId, Topology, TrafficStats};
use numadag::proc::protocol::{Assignment, Done, FromWorker, ToWorker, WireConfig, WireSpec};
use numadag::runtime::framing::to_line;
use numadag::runtime::{
    ExecutionConfig, ExecutionReport, Experiment, StealMode, SweepReport, TaskPlacement,
};
use numadag::serve::protocol::{Request, Response, ServerStats, SweepSpec};
use numadag::tdg::{AccessMode, DataAccess, TaskDescriptor, TaskGraph, TaskGraphSpec, TaskId};
use numadag::trace::{Trace, TraceEvent};

fn round_trip<T: Serialize + Deserialize>(value: &T) -> T {
    serde_json::from_str(&to_line(value)).expect("the wire form decodes")
}

/// `raw`, or (for small `pick`) one of the integers an `f64` number model
/// gets wrong or that sit on the edge of the range.
fn edge(pick: u64, raw: u64) -> u64 {
    match pick {
        0 => 0,
        1 => (1 << 53) + 1,
        2 => u64::MAX,
        _ => raw,
    }
}

/// A finite `f64` with a long shortest-round-trip spelling.
fn float(raw: u64) -> f64 {
    (raw as f64) / 7.0 + 0.1
}

fn events(raw: u64, bytes: u64) -> Vec<TraceEvent> {
    let task = TaskId((raw % 1000) as usize);
    let (socket, core, node) = (SocketId(1), CoreId(5), NodeId(2));
    vec![
        TraceEvent::Assign {
            task,
            socket,
            time: float(raw),
        },
        TraceEvent::Start {
            task,
            socket,
            core,
            time: float(raw / 3),
            stolen: raw.is_multiple_of(2),
        },
        TraceEvent::Finish {
            task,
            socket,
            core,
            time: float(raw / 5),
        },
        TraceEvent::DeferredAlloc {
            task,
            node,
            bytes,
            time: 0.0,
        },
        TraceEvent::Traffic {
            task,
            region: 3,
            from: node,
            to: NodeId(0),
            distance: 21,
            bytes,
            time: 1e-300,
        },
    ]
}

/// A random spec of `tasks` tasks drawn from `seed`: kinds from a table of
/// three, zero to three accesses per task, zero to four dependences per
/// task with repeats, and an EP placement on odd seeds.
fn random_spec(seed: u64, tasks: usize) -> TaskGraphSpec {
    let mut state = seed;
    let mut next = move |bound: u64| {
        // splitmix64
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % bound
    };
    let regions: Vec<u64> = (0..4).map(|_| next(u64::MAX)).collect();
    let mut graph = TaskGraph::new();
    for id in 0..tasks {
        let accesses = (0..next(4))
            .map(|_| DataAccess {
                region: RegionId(next(regions.len() as u64) as usize),
                mode: [AccessMode::In, AccessMode::Out, AccessMode::InOut][next(3) as usize],
                bytes: edge(next(4), next(u64::MAX)),
            })
            .collect();
        let mut deps = Vec::new();
        if id > 0 {
            for _ in 0..next(5) {
                let pred = TaskId(next(id as u64) as usize);
                deps.push((pred, next(1 << 40)));
                if next(3) == 0 {
                    deps.push((pred, next(1 << 40)));
                }
            }
        }
        let task = TaskDescriptor {
            id: TaskId(id),
            kind: ["potrf", "trsm", "gemm"][next(3) as usize].to_string(),
            work_units: float(next(u64::MAX)),
            accesses,
        };
        graph.push_task(task, &deps);
    }
    let spec = TaskGraphSpec::new("random", graph, regions);
    if seed % 2 == 1 {
        let placement = (0..tasks).map(|_| next(4) as usize).collect();
        spec.with_ep_placement(placement)
    } else {
        spec
    }
}

fn tiny_report() -> SweepReport {
    Experiment::new()
        .apps([Application::Jacobi, Application::NStream])
        .scale(ProblemScale::Tiny)
        .run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every coordinator → worker and worker → coordinator message.
    #[test]
    fn proc_messages_round_trip(pick in 0u64..6, raw in 0u64..=u64::MAX, hi in 0u64..=u64::MAX) {
        let big = edge(pick, raw);
        let config = ExecutionConfig::new(Topology::multi_node(2, 2, 3, 120))
            .with_cost_model(CostModel::steep())
            .with_steal(StealMode::NoStealing)
            .with_seed(big);
        let to_worker = [
            ToWorker::Config(WireConfig::new(big, &config)),
            ToWorker::Assign(Assignment {
                cell: big,
                spec_fp: raw,
                policy: "rgp-las:w=512".to_string(),
                policy_seed: big,
                events: pick.is_multiple_of(2),
                placements: pick.is_multiple_of(3),
            }),
            ToWorker::Barrier { epoch: big },
            ToWorker::Shutdown,
        ];
        for message in &to_worker {
            prop_assert_eq!(&round_trip(message), message);
        }
        let ToWorker::Config(wire) = &to_worker[0] else { unreachable!() };
        prop_assert_eq!(wire.to_config().unwrap().seed, big);

        let report = ExecutionReport {
            workload: Arc::from("w"),
            policy: "LAS",
            makespan_ns: float(raw),
            tasks: 42,
            traffic: TrafficStats::from_parts(
                big,
                raw,
                hi,
                vec![((0, 1), big), ((1, 0), hi)],
                (u128::from(hi) << 64) | u128::from(big),
            ),
            tasks_per_socket: vec![10, 32],
            busy_per_socket: vec![float(hi), 0.0],
            stolen_tasks: 5,
            deferred_bytes: big,
            policy_wall_ns: float(hi),
            event_loop_wall_ns: 0.125,
            trace: vec![TaskPlacement {
                task: TaskId(3),
                socket: SocketId(1),
                start: float(raw),
                end: 2e-308,
                stolen: true,
            }],
        };
        let from_worker = [
            FromWorker::Hello { worker: 3, pid: big },
            FromWorker::ConfigAck { epoch: big },
            FromWorker::DataHome { cell: raw, deferred_bytes: big },
            FromWorker::Steal { cell: big, stolen: hi },
            FromWorker::Done(Done::new(big, &report, events(raw, big))),
            FromWorker::BarrierAck { epoch: hi },
            FromWorker::Error { message: format!("boom \"{raw}\"\n") },
        ];
        for message in &from_worker {
            prop_assert_eq!(&round_trip(message), message);
        }
    }

    /// The columnar spec message over random graphs: duplicate
    /// dependences (merged by the graph), repeated kinds, access-free
    /// tasks, with and without an EP placement.
    #[test]
    fn columnar_spec_messages_round_trip(seed in 0u64..=u64::MAX, tasks in 1usize..60) {
        let spec = random_spec(seed, tasks);
        let wire = WireSpec::new(&spec);
        prop_assert!(wire.kinds.len() <= 3);
        let message = ToWorker::Spec(wire);
        let decoded = round_trip(&message);
        prop_assert_eq!(&decoded, &message);
        let ToWorker::Spec(wire) = decoded else { unreachable!() };
        let (fp, rebuilt) = wire.into_spec().unwrap();
        prop_assert_eq!(fp, spec.fingerprint());
        prop_assert_eq!(rebuilt.fingerprint(), fp);
        prop_assert_eq!(&rebuilt.ep_socket, &spec.ep_socket);
        prop_assert_eq!(rebuilt.graph.num_edges(), spec.graph.num_edges());
        for id in spec.graph.task_ids() {
            prop_assert_eq!(rebuilt.graph.predecessors(id), spec.graph.predecessors(id));
            prop_assert_eq!(rebuilt.graph.successors(id), spec.graph.successors(id));
            prop_assert_eq!(&rebuilt.graph.task(id).accesses, &spec.graph.task(id).accesses);
            prop_assert_eq!(&rebuilt.graph.task(id).kind, &spec.graph.task(id).kind);
        }
    }

    /// Every request, response and the server counters.
    #[test]
    fn serve_messages_round_trip(pick in 0u64..6, raw in 0u64..=u64::MAX, reps in 1usize..5) {
        let big = edge(pick, raw);
        let spec = SweepSpec { seed: big, reps, ..SweepSpec::default() };
        for request in [
            Request::SubmitSweep { spec: spec.clone(), stream: pick.is_multiple_of(2) },
            Request::Status { job: big },
            Request::CancelJob { job: raw },
            Request::Stats,
            Request::Shutdown,
        ] {
            prop_assert_eq!(Request::from_line(&to_line(&request)), Ok(request.clone()));
        }
        let stats = ServerStats {
            jobs_submitted: big,
            executed_cells_total: raw,
            cell_cache_capacity: u64::MAX,
            spec_cache_entries: big / 3,
            ..ServerStats::default()
        };
        prop_assert_eq!(&round_trip(&stats), &stats);
        for response in [
            Response::Submitted { job: big, cached: true },
            Response::Progress {
                job: big,
                completed: raw,
                total: u64::MAX,
                application: "Jacobi".to_string(),
                policy: "RGP+LAS".to_string(),
                repetition: big,
            },
            Response::Report {
                job: big,
                cache_hit: false,
                executed_cells: raw,
                hydrated_cells: 0,
                report_json: tiny_report().to_json_string(),
            },
            Response::JobStatus { job: big, state: "running".to_string(), completed: 1, total: 2 },
            Response::Cancelled { job: big },
            Response::Overloaded { queued_cells: big, limit: raw },
            Response::Stats(stats),
            Response::Error { message: "bad \"spec\"".to_string() },
            Response::ShuttingDown,
        ] {
            prop_assert_eq!(Response::from_line(&to_line(&response)), Ok(response.clone()));
        }
    }

    /// A sweep report with its timing section.
    #[test]
    fn sweep_reports_round_trip_with_timing(pick in 0u64..6, raw in 0u64..=u64::MAX) {
        let mut report = tiny_report();
        report.seed = edge(pick, raw);
        report.cells[0].deferred_bytes = edge(pick, raw.rotate_left(7));
        report.timing.total_wall_ns = float(raw);
        report.timing.spec_cache_total_hits = edge(pick, raw) as usize;
        report.timing.cell_policy_wall_ns = vec![float(raw); report.cells.len()];
        let text = report.to_json_string_with_timing();
        let back = SweepReport::from_json_str(&text).unwrap();
        prop_assert_eq!(back.to_json_string_with_timing(), text);
        prop_assert_eq!(back.seed, report.seed);
        prop_assert!(report.diff(&back).is_empty());
    }

    /// A trace with every event kind.
    #[test]
    fn traces_round_trip(pick in 0u64..6, raw in 0u64..=u64::MAX) {
        let trace = Trace {
            workload: "w \"quoted\"".to_string(),
            policy: "LAS".to_string(),
            backend: "simulator".to_string(),
            scale: "Tiny".to_string(),
            repetition: 2,
            tasks: 1000,
            num_sockets: 4,
            makespan_ns: float(raw),
            events: events(raw, edge(pick, raw)),
        };
        prop_assert_eq!(Trace::from_json_str(&trace.to_json_string()), Ok(trace));
    }
}

/// The spec message of every Figure-1 application at Tiny scale rebuilds a
/// spec with the same fingerprint.
#[test]
fn spec_messages_of_every_app_round_trip() {
    for app in Application::all() {
        let spec = app.build(ProblemScale::Tiny, 4);
        let message = ToWorker::Spec(WireSpec::new(&spec));
        let decoded = round_trip(&message);
        assert_eq!(decoded, message, "{app:?}");
        let ToWorker::Spec(wire) = decoded else {
            unreachable!()
        };
        let (fp, rebuilt) = wire.into_spec().unwrap();
        assert_eq!(fp, spec.fingerprint(), "{app:?}");
        assert_eq!(rebuilt.fingerprint(), spec.fingerprint(), "{app:?}");
    }
}

/// Malformed input of every decoder fails with an error that names the
/// field or tag at fault.
#[test]
fn malformed_inputs_name_the_field_or_tag() {
    fn err<T: Deserialize>(line: &str) -> String {
        match serde_json::from_str::<T>(line) {
            Ok(_) => panic!("{line} must not decode"),
            Err(e) => e.to_string(),
        }
    }
    // Two tasks, the second reading what the first wrote; `spec` replaces
    // some of its columns.
    let spec = |replaced: &[(&str, &'static str)]| {
        let mut columns = vec![
            ("fp", "1"),
            ("name", r#""x""#),
            ("kinds", r#"["k"]"#),
            ("kind", "[0, 0]"),
            ("work", "[1, 2.5]"),
            ("access_end", "[1, 2]"),
            ("access_region", "[0, 0]"),
            ("access_mode", "[1, 0]"),
            ("access_bytes", "[8, 8]"),
            ("dep_end", "[0, 1]"),
            ("dep_pred", "[0]"),
            ("dep_bytes", "[8]"),
            ("regions", "[8]"),
            ("ep", "null"),
        ];
        for &(column, value) in replaced {
            columns
                .iter_mut()
                .find(|(name, _)| *name == column)
                .unwrap()
                .1 = value;
        }
        let fields: Vec<String> = columns
            .iter()
            .map(|(k, v)| format!(r#""{k}": {v}"#))
            .collect();
        format!(r#"{{"Spec": {{{}}}}}"#, fields.join(", "))
    };
    // Decodes, then rebuilds: the error of a well-typed but malformed spec.
    let rebuild_err = |line: String| match serde_json::from_str::<ToWorker>(&line) {
        Ok(ToWorker::Spec(wire)) => wire.into_spec().expect_err("must not rebuild"),
        other => panic!("{line} must decode to a spec, got {other:?}"),
    };
    let report = r#"{"machine": "m", "backend": "b", "baseline": "LAS", "seed": 1,
        "repetitions": 1, "cells": [{"application": 3}], "aggregates": [], "skipped": []}"#;
    let trace = r#"{"workload": "w", "policy": "p", "backend": "b", "scale": "s",
        "repetition": 0, "tasks": 1, "num_sockets": 1, "makespan_ns": 1,
        "events": [{"type": "warp", "task": 0, "time": 0}]}"#;
    for (got, want) in [
        (
            err::<Request>(r#"{"Status": {}}"#),
            r#"Status: missing field "job""#,
        ),
        (
            err::<Request>(r#"{"CancelJob": {"job": "7"}}"#),
            "CancelJob.job: expected u64, found a string",
        ),
        (
            err::<Request>(r#"{"SubmitSweep": {"spec": {"seed": 1e30}}}"#),
            "SubmitSweep.spec.seed: expected u64, found 1e30",
        ),
        (
            err::<Request>(r#"{"Launch": {}}"#),
            r#"unknown variant "Launch""#,
        ),
        (
            err::<Response>(r#"{"Report": {"job": 1}}"#),
            r#"Report: missing field "cache_hit""#,
        ),
        (
            err::<Response>(r#"{"Stats": {"jobs_submitted": -1}}"#),
            "Stats.jobs_submitted: expected u64, found -1.0",
        ),
        (
            err::<ToWorker>(r#"{"Assign": {"cell": 1}}"#),
            r#"Assign: missing field "spec_fp""#,
        ),
        (
            err::<ToWorker>(r#"{"Barrier": {"epoch": 1.5}}"#),
            "Barrier.epoch: expected u64, found 1.5",
        ),
        (
            err::<ToWorker>(r#""Reboot""#),
            r#"unknown variant "Reboot""#,
        ),
        (
            err::<ToWorker>(&spec(&[("access_mode", "[1, 256]")])),
            "Spec.access_mode[1]: expected u8, found 256",
        ),
        (
            rebuild_err(spec(&[("dep_pred", "[1]")])),
            "spec.dep_pred: task 1 depends on task 1, not an earlier one",
        ),
        (
            rebuild_err(spec(&[("dep_end", "[1, 1]"), ("dep_pred", "[1]")])),
            "spec.dep_pred: task 0 depends on task 1, not an earlier one",
        ),
        (
            rebuild_err(spec(&[("access_end", "[2, 1]")])),
            "spec.access_end[1]: offset 1 is outside 2..=2",
        ),
        (
            rebuild_err(spec(&[("dep_end", "[0, 2]")])),
            "spec.dep_end[1]: offset 2 is outside 0..=1",
        ),
        (
            rebuild_err(spec(&[("access_end", "[1, 1]")])),
            "spec.access_end ends at 1, but its columns hold 2 entries",
        ),
        (
            rebuild_err(spec(&[("work", "[1]")])),
            "spec.work has 1 entries for 2 tasks (spec.kind)",
        ),
        (
            rebuild_err(spec(&[("access_bytes", "[8]")])),
            "spec.access_bytes has 1 entries, its sibling columns 2",
        ),
        (
            rebuild_err(spec(&[("kind", "[0, 1]")])),
            "spec.kind[1]: kind 1 is not below 1 (spec.kinds)",
        ),
        (
            rebuild_err(spec(&[("access_mode", "[1, 3]")])),
            "spec.access_mode[1]: access mode 3 is not 0, 1 or 2",
        ),
        (
            rebuild_err(spec(&[("access_region", "[0, 1]")])),
            "spec.access_region[1]: region 1 is not below 1 (spec.regions)",
        ),
        (
            rebuild_err(spec(&[("ep", "[0, 1, 0]")])),
            "spec.ep has 3 entries for 2 tasks",
        ),
        (
            rebuild_err(spec(&[])),
            "spec fingerprint mismatch: advertised 0x1",
        ),
        (
            err::<FromWorker>(r#"{"Hello": {"worker": 1}}"#),
            r#"Hello: missing field "pid""#,
        ),
        (
            SweepReport::from_json_str(report).unwrap_err(),
            "cells[0].application: expected a string, found 3",
        ),
        (
            Trace::from_json_str(trace).unwrap_err(),
            r#"events[0]: unknown event type "warp""#,
        ),
    ] {
        assert!(got.starts_with(want), "got {got:?}, want {want:?}");
    }
}

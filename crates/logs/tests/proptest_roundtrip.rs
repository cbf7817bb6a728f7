//! Property tests: every constructible event round-trips through the text
//! renderer and parser, for both scheduler flavours — the invariant the
//! whole text-only pipeline rests on — and the scan-once parser gives every
//! line, rendered or mangled, the verdict of the frozen `find()`-based
//! parser in `oracle/`.

mod oracle;

use proptest::prelude::*;

use hpc_logs::event::{
    Apid, AppKind, ConsoleDetail, ControllerDetail, ControllerScope, ErdDetail, JobEndReason,
    JobId, LogEvent, LustreErrorKind, MceKind, NhcTest, NodeState, OopsCause, PanicReason, Payload,
    SchedulerDetail, StackModule,
};
use hpc_logs::parse::LogParser;
use hpc_logs::render::render;
use hpc_logs::time::SimTime;
use hpc_platform::interconnect::LinkErrorKind;
use hpc_platform::sensors::{Deviation, SensorKind};
use hpc_platform::system::SchedulerKind;
use hpc_platform::{BladeId, CabinetId, NodeId};

fn app_kind() -> impl Strategy<Value = AppKind> {
    prop::sample::select(AppKind::ALL.to_vec())
}

fn stack_modules() -> impl Strategy<Value = Vec<StackModule>> {
    prop::collection::vec(prop::sample::select(StackModule::ALL.to_vec()), 0..6)
}

fn console_detail() -> impl Strategy<Value = ConsoleDetail> {
    prop_oneof![
        (
            0u8..8,
            prop::sample::select(vec![MceKind::Page, MceKind::Cache, MceKind::Dimm]),
            any::<bool>()
        )
            .prop_map(|(bank, kind, corrected)| ConsoleDetail::Mce {
                bank,
                kind,
                corrected
            }),
        (0u8..8, any::<bool>())
            .prop_map(|(dimm, correctable)| ConsoleDetail::MemoryError { dimm, correctable }),
        (app_kind(), 1u32..100_000).prop_map(|(app, pid)| ConsoleDetail::SegFault { app, pid }),
        (app_kind(), 1u32..100_000)
            .prop_map(|(victim, pid)| ConsoleDetail::OomKill { victim, pid }),
        (
            prop::sample::select(vec![
                OopsCause::PagingRequest,
                OopsCause::NullDeref,
                OopsCause::InvalidOpcode,
                OopsCause::GeneralProtection,
            ]),
            stack_modules()
        )
            .prop_map(|(cause, modules)| ConsoleDetail::KernelOops { cause, modules }),
        prop::sample::select(vec![
            PanicReason::FatalMce,
            PanicReason::LustreBug,
            PanicReason::KernelBug,
            PanicReason::OutOfMemory,
            PanicReason::CpuCorruption,
            PanicReason::FirmwareBug,
            PanicReason::DriverBug,
            PanicReason::HungTask,
        ])
        .prop_map(|reason| ConsoleDetail::KernelPanic { reason }),
        prop::sample::select(vec![
            LustreErrorKind::Timeout,
            LustreErrorKind::Evicted,
            LustreErrorKind::IoError,
            LustreErrorKind::PageFaultLock,
            LustreErrorKind::InodeError,
        ])
        .prop_map(|kind| ConsoleDetail::LustreError { kind }),
        (app_kind(), 1u32..100_000, stack_modules())
            .prop_map(|(task, pid, modules)| ConsoleDetail::HungTaskTimeout { task, pid, modules }),
        (0u8..64).prop_map(|cpu| ConsoleDetail::CpuStall { cpu }),
        (app_kind(), 0u8..6)
            .prop_map(|(app, order)| ConsoleDetail::PageAllocFailure { app, order }),
        (0u8..4, 0u8..120).prop_map(|(gpu, xid)| ConsoleDetail::GpuError { gpu, xid }),
        Just(ConsoleDetail::DiskError),
        Just(ConsoleDetail::BiosError),
        prop::sample::select(vec![
            NhcTest::Heartbeat,
            NhcTest::FilesystemMount,
            NhcTest::FreeMemory,
            NhcTest::AppExit,
            NhcTest::ProcessTable,
        ])
        .prop_map(|test| ConsoleDetail::NhcWarning { test }),
        Just(ConsoleDetail::UnexpectedShutdown),
        Just(ConsoleDetail::GracefulShutdown),
    ]
}

fn node_id() -> impl Strategy<Value = NodeId> {
    (0u32..10_000).prop_map(NodeId)
}

fn blade_scope() -> impl Strategy<Value = ControllerScope> {
    (0u32..2_500).prop_map(|b| ControllerScope::Blade(BladeId(b)))
}

fn cabinet_scope() -> impl Strategy<Value = ControllerScope> {
    (0u32..64).prop_map(|c| ControllerScope::Cabinet(CabinetId(c)))
}

fn controller_event() -> impl Strategy<Value = (ControllerScope, ControllerDetail)> {
    prop_oneof![
        (blade_scope(), node_id())
            .prop_map(|(s, node)| (s, ControllerDetail::NodeHeartbeatFault { node })),
        (blade_scope(), node_id())
            .prop_map(|(s, node)| (s, ControllerDetail::NodeVoltageFault { node })),
        blade_scope().prop_map(|s| (s, ControllerDetail::BcHeartbeatFault)),
        (blade_scope(), 0u16..32)
            .prop_map(|(s, channel)| (s, ControllerDetail::EcbFault { channel })),
        (prop_oneof![blade_scope(), cabinet_scope()], 0u16..32)
            .prop_map(|(s, channel)| (s, ControllerDetail::SensorReadFailed { channel })),
        cabinet_scope().prop_map(|s| (s, ControllerDetail::CabinetPowerFault)),
        cabinet_scope().prop_map(|s| (s, ControllerDetail::MicroControllerFault)),
        cabinet_scope().prop_map(|s| (s, ControllerDetail::CommunicationFault)),
        blade_scope().prop_map(|s| (s, ControllerDetail::ModuleHealthFault)),
        (cabinet_scope(), 0u8..8).prop_map(|(s, fan)| (s, ControllerDetail::RpmFault { fan })),
        (blade_scope(), node_id()).prop_map(|(s, node)| (s, ControllerDetail::L0SysdMce { node })),
        (blade_scope(), node_id())
            .prop_map(|(s, node)| (s, ControllerDetail::NodePowerOff { node })),
    ]
}

fn sensor_kind() -> impl Strategy<Value = SensorKind> {
    prop::sample::select(SensorKind::ALL.to_vec())
}

fn erd_event() -> impl Strategy<Value = (ControllerScope, ErdDetail)> {
    prop_oneof![
        (
            prop_oneof![blade_scope(), cabinet_scope()],
            sensor_kind(),
            0u16..32,
            // Keep readings to values whose shortest decimal representation
            // round-trips exactly through `{}` formatting.
            (-10_000i32..100_000).prop_map(|v| v as f64 / 100.0),
            prop::sample::select(vec![Deviation::BelowMinimum, Deviation::AboveMaximum]),
        )
            .prop_map(|(s, sensor, channel, reading, deviation)| {
                (
                    s,
                    ErdDetail::SedcWarning {
                        sensor,
                        channel,
                        reading,
                        deviation,
                    },
                )
            }),
        (
            prop_oneof![blade_scope(), cabinet_scope()],
            sensor_kind(),
            0u16..32,
            (0i32..100_000).prop_map(|v| v as f64 / 100.0),
        )
            .prop_map(|(s, sensor, channel, reading)| {
                (
                    s,
                    ErdDetail::SedcReading {
                        sensor,
                        channel,
                        reading,
                    },
                )
            }),
        (
            node_id(),
            prop::sample::select(vec![
                hpc_platform::components::Component::Cpu,
                hpc_platform::components::Component::Dimm,
                hpc_platform::components::Component::Nic,
                hpc_platform::components::Component::Disk,
                hpc_platform::components::Component::Gpu,
                hpc_platform::components::Component::BurstBufferSsd,
            ])
        )
            .prop_map(|(node, component)| {
                (
                    ControllerScope::Blade(node.blade()),
                    ErdDetail::HwError { node, component },
                )
            }),
        prop_oneof![blade_scope(), cabinet_scope()].prop_map(|s| (s, ErdDetail::HeartbeatStop)),
        blade_scope().prop_map(|s| (s, ErdDetail::L0Failed)),
        (
            blade_scope(),
            0u8..8,
            prop::sample::select(vec![
                LinkErrorKind::Crc,
                LinkErrorKind::LaneDegrade,
                LinkErrorKind::LinkDown,
                LinkErrorKind::Failover { succeeded: true },
                LinkErrorKind::Failover { succeeded: false },
            ])
        )
            .prop_map(|(s, port, kind)| (s, ErdDetail::LinkError { port, kind })),
        (cabinet_scope(), any::<bool>()).prop_map(|(s, air)| (
            s,
            ErdDetail::Environment {
                air_flow_reduced: air
            }
        )),
        (cabinet_scope(), any::<bool>())
            .prop_map(|(s, ok)| (s, ErdDetail::CabinetSensorCheck { ok })),
        node_id().prop_map(|node| {
            (
                ControllerScope::Blade(node.blade()),
                ErdDetail::NodeFailed { node },
            )
        }),
    ]
}

fn scheduler_detail() -> impl Strategy<Value = SchedulerDetail> {
    prop_oneof![
        (
            1u64..1_000_000,
            1u64..10_000_000,
            0u32..100_000,
            app_kind(),
            prop::collection::btree_set(0u32..5_000, 1..20),
            1u32..1_000_000,
        )
            .prop_map(
                |(job, apid, user, app, nodes, mem)| SchedulerDetail::JobStart {
                    job: JobId(job),
                    apid: Apid(apid),
                    user,
                    app,
                    nodes: nodes.into_iter().map(NodeId).collect(),
                    mem_per_node_mib: mem,
                }
            ),
        (
            1u64..1_000_000,
            -255i32..256,
            prop::sample::select(vec![
                JobEndReason::Completed,
                JobEndReason::WallTimeExceeded,
                JobEndReason::MemoryLimitExceeded,
                JobEndReason::UserCancelled,
                JobEndReason::NodeFail,
                JobEndReason::AppError,
            ])
        )
            .prop_map(|(job, exit_code, reason)| SchedulerDetail::JobEnd {
                job: JobId(job),
                exit_code,
                reason,
            }),
        (
            node_id(),
            prop::sample::select(vec![
                NhcTest::Heartbeat,
                NhcTest::FilesystemMount,
                NhcTest::FreeMemory,
                NhcTest::AppExit,
                NhcTest::ProcessTable,
            ]),
            any::<bool>()
        )
            .prop_map(|(node, test, passed)| SchedulerDetail::NhcResult {
                node,
                test,
                passed
            }),
        (
            node_id(),
            prop::sample::select(vec![
                NodeState::Up,
                NodeState::Suspect,
                NodeState::AdminDown,
                NodeState::Down,
                NodeState::PoweredOff,
            ])
        )
            .prop_map(|(node, state)| SchedulerDetail::NodeStateChange { node, state }),
        (1u64..1_000_000, node_id()).prop_map(|(job, node)| SchedulerDetail::EpilogueCleanup {
            job: JobId(job),
            node
        }),
        (1u64..1_000_000, node_id(), 1u32..1_000_000, 1u32..1_000_000).prop_map(
            |(job, node, requested_mib, available_mib)| {
                SchedulerDetail::MemOverallocation {
                    job: JobId(job),
                    node,
                    requested_mib,
                    available_mib,
                }
            }
        ),
    ]
}

fn any_event() -> impl Strategy<Value = LogEvent> {
    let time = (0u64..3_000_000_000u64).prop_map(SimTime::from_millis);
    let payload = prop_oneof![
        (node_id(), console_detail()).prop_map(|(node, detail)| Payload::Console { node, detail }),
        controller_event().prop_map(|(scope, detail)| Payload::Controller { scope, detail }),
        erd_event().prop_map(|(scope, detail)| Payload::Erd { scope, detail }),
        scheduler_detail().prop_map(|detail| Payload::Scheduler { detail }),
    ];
    (time, payload).prop_map(|(time, payload)| LogEvent { time, payload })
}

/// One way of mangling a rendered line, applied at a byte position.
#[derive(Debug, Clone)]
enum Mangle {
    /// Overwrite one byte (possibly breaking UTF-8; the line is lossily
    /// re-sanitised, as the file readers would).
    Flip(u8),
    /// Cut the line here (a torn write).
    Truncate,
    /// Insert a fragment that collides with the field grammar: stray and
    /// doubled keys, keys glued into values, signs `str::parse` accepts.
    Insert(&'static str),
    /// Repeat the rest of the line (every key now occurs twice).
    Repeat,
}

fn mangle() -> impl Strategy<Value = Mangle> {
    prop_oneof![
        any::<u8>().prop_map(Mangle::Flip),
        prop::sample::select(b"= +-cnsTZ:.0\xC3\xFF".to_vec()).prop_map(Mangle::Flip),
        Just(Mangle::Truncate),
        prop::sample::select(vec![
            " ch=9",
            "xch=7 ",
            "src=",
            " src=c0-0c0s1n0",
            "=",
            " = ",
            "+",
            "node=nid00007 ",
            "job=+5 ",
            " status=ok",
            "reading=1e3 ",
            "sensor=ch=2 ",
            " end ",
            " start",
            "\r",
            "\u{FFFD}",
            "é",
        ])
        .prop_map(Mangle::Insert),
        Just(Mangle::Repeat),
    ]
}

fn apply(line: &str, how: &Mangle, at: usize) -> String {
    let mut bytes = line.as_bytes().to_vec();
    let at = at % (bytes.len() + 1);
    match how {
        Mangle::Flip(b) => {
            if let Some(slot) = bytes.get_mut(at) {
                *slot = *b;
            }
        }
        Mangle::Truncate => bytes.truncate(at),
        Mangle::Insert(fragment) => {
            bytes.splice(at..at, fragment.bytes());
        }
        Mangle::Repeat => {
            let tail = bytes[at..].to_vec();
            bytes.extend(tail);
        }
    }
    // A newline would make it two lines; the readers never hand one over.
    bytes.retain(|&b| b != b'\n');
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn scan_once_parser_agrees_with_the_frozen_oracle(
        events in prop::collection::vec(any_event(), 1..12),
        slurm in any::<bool>(),
        mangles in prop::collection::vec((0usize..64, mangle(), 0usize..200), 0..12),
    ) {
        use hpc_logs::event::LogSource;
        let scheduler = if slurm { SchedulerKind::Slurm } else { SchedulerKind::Torque };
        // (source, line), clean; then some lines mangled, some more than once.
        let mut lines: Vec<(LogSource, String)> = events
            .iter()
            .flat_map(|e| render(e, scheduler).into_iter().map(|l| (e.source(), l)))
            .collect();
        for (which, how, at) in &mangles {
            let slot = which % lines.len();
            lines[slot].1 = apply(&lines[slot].1, how, *at);
        }
        // Each stream through one parser of either kind, the console one
        // keeping its per-node state across lines; and every line through
        // every grammar, since a mangled line may land in any file.
        for source in LogSource::ALL {
            let own = lines.iter().filter(|(s, _)| *s == source).map(|(_, l)| l.as_str());
            let all = lines.iter().map(|(_, l)| l.as_str());
            for stream in [own.collect::<Vec<_>>(), all.collect()] {
                let mut parser = LogParser::new();
                let mut got = Vec::new();
                for line in &stream {
                    parser.parse_line(source, line, &mut got);
                }
                parser.finish(&mut got);
                got.sort_by_key(|e| e.time);
                let (want, parsed, skipped) =
                    oracle::LogParser::parse_stream(source, stream.iter().copied());
                prop_assert_eq!(&got, &want, "{:?} over {:#?}", source, stream);
                prop_assert_eq!(
                    (parser.parsed_lines, parser.skipped_lines),
                    (parsed, skipped),
                    "{:?} over {:#?}", source, stream
                );
                for line in &stream {
                    prop_assert_eq!(
                        hpc_logs::parse::split_timestamp(line),
                        oracle::split_timestamp(line),
                        "{:?}", line
                    );
                }
            }
        }
    }

    #[test]
    fn every_event_round_trips(event in any_event(), slurm in any::<bool>()) {
        let scheduler = if slurm { SchedulerKind::Slurm } else { SchedulerKind::Torque };
        let source = event.source();
        let lines = render(&event, scheduler);
        prop_assert!(!lines.is_empty());
        let mut parser = LogParser::new();
        let mut out = Vec::new();
        for line in &lines {
            prop_assert!(
                parser.parse_line(source, line, &mut out),
                "line not recognised: {line}"
            );
        }
        parser.finish(&mut out);
        prop_assert_eq!(out, vec![event]);
    }

    #[test]
    fn rendering_is_single_line_unless_traced(event in any_event()) {
        let lines = render(&event, SchedulerKind::Slurm);
        let multi = matches!(
            &event.payload,
            Payload::Console {
                detail: ConsoleDetail::KernelOops { .. } | ConsoleDetail::HungTaskTimeout { .. },
                ..
            }
        );
        if multi {
            prop_assert!(lines.len() >= 2, "trace events render a Call Trace section");
        } else {
            prop_assert_eq!(lines.len(), 1);
        }
        // Every rendered line starts with the canonical timestamp.
        for line in &lines {
            prop_assert!(SimTime::parse(&line[..23]).is_some(), "bad timestamp in {line}");
        }
    }

    #[test]
    fn parser_never_panics_on_corrupted_lines(
        line in "[ -~]{0,120}",
        source_idx in 0usize..4,
    ) {
        use hpc_logs::event::LogSource;
        let source = LogSource::ALL[source_idx];
        let mut parser = LogParser::new();
        let mut out = Vec::new();
        // Must not panic; may or may not parse.
        let _ = parser.parse_line(source, &line, &mut out);
    }

    #[test]
    fn truncated_real_lines_never_panic(event in any_event(), cut in 0usize..40) {
        let source = event.source();
        let lines = render(&event, SchedulerKind::Slurm);
        let mut parser = LogParser::new();
        let mut out = Vec::new();
        for line in &lines {
            let truncated = &line[..line.len().saturating_sub(cut).min(line.len())];
            let _ = parser.parse_line(source, truncated, &mut out);
        }
        parser.finish(&mut out);
    }
}

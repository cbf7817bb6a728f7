//! Generators of arbitrary events, shared by the property tests: every
//! `Payload` variant, with field values whose text round-trips through the
//! parser (readings with at most two decimals, nids of five digits).

use proptest::prelude::*;

use hpc_logs::event::{
    Apid, AppKind, ConsoleDetail, ControllerDetail, ControllerScope, ErdDetail, JobEndReason,
    JobId, LogEvent, LustreErrorKind, MceKind, NhcTest, NodeState, OopsCause, PanicReason, Payload,
    SchedulerDetail, StackModule,
};
use hpc_logs::time::SimTime;
use hpc_platform::interconnect::LinkErrorKind;
use hpc_platform::sensors::{Deviation, SensorKind};
use hpc_platform::{BladeId, CabinetId, NodeId};

pub fn app_kind() -> impl Strategy<Value = AppKind> {
    prop::sample::select(AppKind::ALL.to_vec())
}

pub fn stack_modules() -> impl Strategy<Value = Vec<StackModule>> {
    prop::collection::vec(prop::sample::select(StackModule::ALL.to_vec()), 0..6)
}

pub fn console_detail() -> impl Strategy<Value = ConsoleDetail> {
    prop_oneof![
        (
            0u8..8,
            prop::sample::select(MceKind::ALL.to_vec()),
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
            prop::sample::select(OopsCause::ALL.to_vec()),
            stack_modules()
        )
            .prop_map(|(cause, modules)| ConsoleDetail::KernelOops { cause, modules }),
        prop::sample::select(PanicReason::ALL.to_vec())
            .prop_map(|reason| ConsoleDetail::KernelPanic { reason }),
        prop::sample::select(LustreErrorKind::ALL.to_vec())
            .prop_map(|kind| ConsoleDetail::LustreError { kind }),
        (app_kind(), 1u32..100_000, stack_modules())
            .prop_map(|(task, pid, modules)| ConsoleDetail::HungTaskTimeout { task, pid, modules }),
        (0u8..64).prop_map(|cpu| ConsoleDetail::CpuStall { cpu }),
        (app_kind(), 0u8..6)
            .prop_map(|(app, order)| ConsoleDetail::PageAllocFailure { app, order }),
        (0u8..4, 0u8..120).prop_map(|(gpu, xid)| ConsoleDetail::GpuError { gpu, xid }),
        Just(ConsoleDetail::DiskError),
        Just(ConsoleDetail::BiosError),
        prop::sample::select(NhcTest::ALL.to_vec())
            .prop_map(|test| ConsoleDetail::NhcWarning { test }),
        Just(ConsoleDetail::UnexpectedShutdown),
        Just(ConsoleDetail::GracefulShutdown),
    ]
}

pub fn node_id() -> impl Strategy<Value = NodeId> {
    (0u32..10_000).prop_map(NodeId)
}

pub fn blade_scope() -> impl Strategy<Value = ControllerScope> {
    (0u32..2_500).prop_map(|b| ControllerScope::Blade(BladeId(b)))
}

pub fn cabinet_scope() -> impl Strategy<Value = ControllerScope> {
    (0u32..64).prop_map(|c| ControllerScope::Cabinet(CabinetId(c)))
}

pub fn controller_event() -> impl Strategy<Value = (ControllerScope, ControllerDetail)> {
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

pub fn sensor_kind() -> impl Strategy<Value = SensorKind> {
    prop::sample::select(SensorKind::ALL.to_vec())
}

pub fn erd_event() -> impl Strategy<Value = (ControllerScope, ErdDetail)> {
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
            prop::sample::select(hpc_platform::components::Component::ALL.to_vec())
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
            prop::sample::select(LinkErrorKind::ALL.to_vec())
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

pub fn scheduler_detail() -> impl Strategy<Value = SchedulerDetail> {
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
            prop::sample::select(JobEndReason::ALL.to_vec())
        )
            .prop_map(|(job, exit_code, reason)| SchedulerDetail::JobEnd {
                job: JobId(job),
                exit_code,
                reason,
            }),
        (
            node_id(),
            prop::sample::select(NhcTest::ALL.to_vec()),
            any::<bool>()
        )
            .prop_map(|(node, test, passed)| SchedulerDetail::NhcResult {
                node,
                test,
                passed
            }),
        (node_id(), prop::sample::select(NodeState::ALL.to_vec()))
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

pub fn any_event() -> impl Strategy<Value = LogEvent> {
    let time = (0u64..3_000_000_000u64).prop_map(SimTime::from_millis);
    let payload = prop_oneof![
        (node_id(), console_detail()).prop_map(|(node, detail)| Payload::Console { node, detail }),
        controller_event().prop_map(|(scope, detail)| Payload::Controller { scope, detail }),
        erd_event().prop_map(|(scope, detail)| Payload::Erd { scope, detail }),
        scheduler_detail().prop_map(|detail| Payload::Scheduler { detail }),
    ];
    (time, payload).prop_map(|(time, payload)| LogEvent { time, payload })
}

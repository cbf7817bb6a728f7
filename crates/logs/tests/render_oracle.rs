//! Differential property tests: the one-pass renderer and the single-write
//! `Display` impls of `SimTime` and `Cname` produce exactly the bytes of
//! the code they replaced, frozen in `oracle/render.rs`.

#[path = "oracle/render.rs"]
mod old;
mod strategies;

use proptest::prelude::*;

use hpc_logs::event::{
    Apid, AppKind, ConsoleDetail, ControllerScope, ErdDetail, JobId, LogEvent, MceKind, NhcTest,
    Payload, SchedulerDetail,
};
use hpc_logs::render::render;
use hpc_logs::time::SimTime;
use hpc_platform::id::Cname;
use hpc_platform::sensors::SensorKind;
use hpc_platform::system::SchedulerKind;
use hpc_platform::{BladeId, CabinetId, NodeId};

/// Instants up to past the year 10000, and anywhere in `u64`.
fn any_millis() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..400_000_000_000_000, any::<u64>()]
}

/// Ids small enough to collide and run together, near `u32::MAX`, or any.
fn any_id() -> impl Strategy<Value = u32> {
    prop_oneof![
        0u32..64,
        (u32::MAX - 16)..u32::MAX,
        Just(u32::MAX),
        any::<u32>()
    ]
}

/// What the round-trip generators leave out because the parser cannot
/// read it back: any node list (unsorted, repeated, empty), ids of any
/// width and readings of any bit pattern.
fn wide_payload() -> impl Strategy<Value = Payload> {
    prop_oneof![
        (
            any::<u64>(),
            any::<u64>(),
            any::<u32>(),
            prop::sample::select(AppKind::ALL.to_vec()),
            prop::collection::vec(any_id(), 0..24),
            any::<u32>(),
        )
            .prop_map(|(job, apid, user, app, nodes, mem)| Payload::Scheduler {
                detail: SchedulerDetail::JobStart {
                    job: JobId(job),
                    apid: Apid(apid),
                    user,
                    app,
                    nodes: nodes.into_iter().map(NodeId).collect(),
                    mem_per_node_mib: mem,
                },
            }),
        (any_id(), any::<bool>()).prop_map(|(node, passed)| Payload::Scheduler {
            detail: SchedulerDetail::NhcResult {
                node: NodeId(node),
                test: NhcTest::Heartbeat,
                passed,
            },
        }),
        (any_id(), any::<bool>(), any::<u16>(), any::<u64>()).prop_map(
            |(id, blade, channel, bits)| Payload::Erd {
                scope: if blade {
                    ControllerScope::Blade(BladeId(id))
                } else {
                    ControllerScope::Cabinet(CabinetId(id))
                },
                detail: ErdDetail::SedcReading {
                    sensor: SensorKind::Temperature,
                    channel,
                    reading: f64::from_bits(bits),
                },
            }
        ),
        (any_id(), any::<u8>()).prop_map(|(node, bank)| Payload::Console {
            node: NodeId(node),
            detail: ConsoleDetail::Mce {
                bank,
                kind: MceKind::Dimm,
                corrected: false,
            },
        }),
    ]
}

fn any_option(value: impl Strategy<Value = u32> + 'static) -> impl Strategy<Value = Option<u32>> {
    prop_oneof![Just(None), value.prop_map(Some)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn render_matches_the_frozen_renderer(
        millis in any_millis(),
        payload in prop_oneof![strategies::any_event().prop_map(|e| e.payload), wide_payload()],
        slurm in any::<bool>(),
    ) {
        let scheduler = if slurm { SchedulerKind::Slurm } else { SchedulerKind::Torque };
        let event = LogEvent { time: SimTime::from_millis(millis), payload };
        prop_assert_eq!(render(&event, scheduler), old::render(&event, scheduler), "{:?}", event);
    }

    #[test]
    fn simtime_display_matches_the_frozen_format(millis in any_millis()) {
        let t = SimTime::from_millis(millis);
        prop_assert_eq!(t.to_string(), old::Stamp(t).to_string());
    }

    #[test]
    fn cname_display_matches_the_frozen_write_chain(
        column in any_id(),
        row in any_id(),
        chassis in any_option(any_id()),
        slot in any_option(any_id()),
        node in any_option(any_id()),
    ) {
        let c = Cname { column, row, chassis, slot, node };
        prop_assert_eq!(c.to_string(), old::OldCname(c).to_string());
    }
}

#[test]
fn widest_stamps_and_cnames_match_the_frozen_formats() {
    for millis in [0, 251_950_694_399_999, 251_950_694_400_000, u64::MAX] {
        let t = SimTime::from_millis(millis);
        assert_eq!(t.to_string(), old::Stamp(t).to_string());
    }
    let widest = Cname {
        column: u32::MAX,
        row: u32::MAX,
        chassis: Some(u32::MAX),
        slot: Some(u32::MAX),
        node: Some(u32::MAX),
    };
    assert_eq!(
        widest.to_string(),
        "c4294967295-4294967295c4294967295s4294967295n4294967295"
    );
    assert_eq!(widest.to_string(), old::OldCname(widest).to_string());
}

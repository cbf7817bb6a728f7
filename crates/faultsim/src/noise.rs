//! Benign event generators: faults and warnings that do **not** cause
//! failures.
//!
//! Observations 3 and 4 of the paper are *negative* results — "blade and
//! cabinet-level indications are not primary causes of failures", "increase
//! in error counts need not necessarily degrade system reliability" — and
//! they only hold if the simulated logs contain realistic volumes of benign
//! noise: recurring SEDC threshold warnings on healthy blades, correctable
//! memory errors on many nodes (Fig. 10), chatty blades with >1400 daily
//! warnings (Fig. 9), benign heartbeat faults from powered-off nodes
//! (Fig. 6), link-error chatter, and the benign occurrences of the BIOS
//! pattern.

use rand::Rng;

use hpc_logs::event::{
    ConsoleDetail, ControllerDetail, ControllerScope, ErdDetail, LogEvent, LustreErrorKind,
    MceKind, Payload, StackModule,
};
use hpc_logs::time::{SimDuration, SimTime};
use hpc_platform::interconnect::LinkErrorKind;
use hpc_platform::rng::{chance, normal_sample};
use hpc_platform::sensors::{Deviation, SensorKind};
use hpc_platform::{BladeId, CabinetId, NodeId};

use crate::fault::BenignNhfOutcome;

/// A benign NHF occurrence: the heartbeat fault plus, for powered-off
/// nodes, the operator power-off notice and no recovery drama.
pub fn benign_nhf<R: Rng + ?Sized>(
    rng: &mut R,
    node: NodeId,
    t: SimTime,
) -> (Vec<LogEvent>, BenignNhfOutcome) {
    let scope = ControllerScope::Blade(node.blade());
    let mut events = vec![LogEvent {
        time: t,
        payload: Payload::Controller {
            scope,
            detail: ControllerDetail::NodeHeartbeatFault { node },
        },
    }];
    let outcome = if chance(rng, 0.45) {
        // Powered off: the power-off notice explains the missed heartbeat.
        events.push(LogEvent {
            time: t + SimDuration::from_secs(20),
            payload: Payload::Controller {
                scope,
                detail: ControllerDetail::NodePowerOff { node },
            },
        });
        BenignNhfOutcome::PoweredOff
    } else {
        BenignNhfOutcome::SkippedHeartbeat
    };
    (events, outcome)
}

/// A benign `ec_hw_error` during healthy operation (§III-D: "Hardware
/// errors do appear during healthy times as well. However, additional
/// internal failure patterns affirm their correlations with node
/// failures."). These are what keep externally-correlated prediction from
/// being trivially perfect (Fig. 14).
pub fn benign_hw_external<R: Rng + ?Sized>(rng: &mut R, node: NodeId, t: SimTime) -> LogEvent {
    use hpc_platform::components::Component;
    let component = [Component::Cpu, Component::Dimm, Component::Nic][rng.gen_range(0..3)];
    LogEvent {
        time: t,
        payload: Payload::Erd {
            scope: ControllerScope::Blade(node.blade()),
            detail: ErdDetail::HwError { node, component },
        },
    }
}

/// A benign node-voltage fault: a transient regulator glitch logged by the
/// BC that the node rides out (Fig. 5's non-failing NVF minority).
pub fn benign_nvf(node: NodeId, t: SimTime) -> LogEvent {
    LogEvent {
        time: t,
        payload: Payload::Controller {
            scope: ControllerScope::Blade(node.blade()),
            detail: ControllerDetail::NodeVoltageFault { node },
        },
    }
}

/// Benign hardware-error noise on one node: a handful of *correctable*
/// MCEs/EDAC errors spread over a few hours (the Fig. 10 population of
/// erroneous-but-healthy nodes).
pub fn benign_hw_errors<R: Rng + ?Sized>(rng: &mut R, node: NodeId, t: SimTime) -> Vec<LogEvent> {
    let n = rng.gen_range(2..6);
    let mut events = Vec::with_capacity(n);
    for i in 0..n {
        let dt = SimDuration::from_millis(rng.gen_range(0..4 * 3_600_000) + i as u64);
        let detail = if chance(rng, 0.5) {
            ConsoleDetail::Mce {
                bank: rng.gen_range(0..8),
                kind: MceKind::ALL[rng.gen_range(0..MceKind::ALL.len())],
                corrected: true,
            }
        } else {
            ConsoleDetail::MemoryError {
                dimm: rng.gen_range(0..8),
                correctable: true,
            }
        };
        events.push(LogEvent {
            time: t + dt,
            payload: Payload::Console { node, detail },
        });
    }
    events
}

/// Benign Lustre I/O noise on one node: page-fault locks / timeouts that
/// signal job-triggered I/O pressure without failing anything. "More nodes
/// experience page fault locks signaling I/O problems (job-triggered) than
/// hardware errors" (Fig. 10).
pub fn lustre_noise<R: Rng + ?Sized>(rng: &mut R, node: NodeId, t: SimTime) -> Vec<LogEvent> {
    let n = rng.gen_range(1..4);
    (0..n)
        .map(|i| LogEvent {
            time: t + SimDuration::from_millis(rng.gen_range(0..2 * 3_600_000) + i as u64),
            payload: Payload::Console {
                node,
                detail: ConsoleDetail::LustreError {
                    kind: if chance(rng, 0.7) {
                        LustreErrorKind::PageFaultLock
                    } else {
                        LustreErrorKind::IoError
                    },
                },
            },
        })
        .collect()
}

/// A hung-task report (S5's dominant non-failing pattern, Fig. 15: 80.57%
/// of nodes): blocked task with a slow-I/O call trace. Does not fail the
/// node.
pub fn hung_task_event<R: Rng + ?Sized>(
    rng: &mut R,
    node: NodeId,
    t: SimTime,
    task: hpc_logs::event::AppKind,
) -> LogEvent {
    LogEvent {
        time: t,
        payload: Payload::Console {
            node,
            detail: ConsoleDetail::HungTaskTimeout {
                task,
                pid: rng.gen_range(1_000..60_000),
                modules: vec![
                    StackModule::IoSchedule,
                    StackModule::RwsemDownFailed,
                    StackModule::Generic,
                ],
            },
        },
    }
}

/// A benign occurrence of the BIOS pattern ("commonly seen in the systems
/// for benign healthy cases as well", §III Unknown Causes).
pub fn benign_bios_event(node: NodeId, t: SimTime) -> LogEvent {
    LogEvent {
        time: t,
        payload: Payload::Console {
            node,
            detail: ConsoleDetail::BiosError,
        },
    }
}

/// An intended, administratively scheduled shutdown — excluded by the
/// pipeline (§III: "We recognize and exclude intended shutdowns").
pub fn graceful_shutdown_event(node: NodeId, t: SimTime) -> LogEvent {
    LogEvent {
        time: t,
        payload: Payload::Console {
            node,
            detail: ConsoleDetail::GracefulShutdown,
        },
    }
}

/// A burst of SEDC threshold warnings from one blade controller —
/// predominantly below-minimum deviations (§III-C).
pub fn sedc_warning_burst<R: Rng + ?Sized>(
    rng: &mut R,
    blade: BladeId,
    t: SimTime,
) -> Vec<LogEvent> {
    let n = rng.gen_range(1..5);
    (0..n)
        .map(|i| sedc_warning(rng, ControllerScope::Blade(blade), t, i))
        .collect()
}

/// A burst of cabinet-level SEDC warnings and health faults. Cabinet-level
/// faults are logged "more frequently than those of blades" (§III-C).
pub fn cabinet_fault_burst<R: Rng + ?Sized>(
    rng: &mut R,
    cabinet: CabinetId,
    t: SimTime,
) -> Vec<LogEvent> {
    let scope = ControllerScope::Cabinet(cabinet);
    let mut events = Vec::new();
    let n = rng.gen_range(2..7);
    for i in 0..n {
        if chance(rng, 0.6) {
            events.push(sedc_warning(rng, scope, t, i));
        } else {
            let detail = match rng.gen_range(0..5) {
                0 => ControllerDetail::RpmFault {
                    fan: rng.gen_range(0..4),
                },
                1 => ControllerDetail::CabinetPowerFault,
                2 => ControllerDetail::MicroControllerFault,
                3 => ControllerDetail::SensorReadFailed {
                    channel: rng.gen_range(0..8),
                },
                _ => ControllerDetail::CommunicationFault,
            };
            events.push(LogEvent {
                time: t + SimDuration::from_secs(i as u64 * 7),
                payload: Payload::Controller { scope, detail },
            });
        }
    }
    // Thermal response: the firmware may reduce air velocity (§III-C).
    if chance(rng, 0.3) {
        events.push(LogEvent {
            time: t + SimDuration::from_mins(1),
            payload: Payload::Erd {
                scope,
                detail: ErdDetail::Environment {
                    air_flow_reduced: true,
                },
            },
        });
    }
    events
}

fn sedc_warning<R: Rng + ?Sized>(
    rng: &mut R,
    scope: ControllerScope,
    t: SimTime,
    seq: u32,
) -> LogEvent {
    let kinds = [
        SensorKind::Temperature,
        SensorKind::Voltage,
        SensorKind::AirVelocity,
        SensorKind::FanSpeed,
    ];
    let sensor = kinds[rng.gen_range(0..kinds.len())];
    let range = sensor.range();
    // Predominantly below-minimum (§III-C).
    let (reading, deviation) = if chance(rng, 0.8) {
        (
            ((range.low - rng.gen_range(0.01..0.2) * range.band()) * 100.0).round() / 100.0,
            Deviation::BelowMinimum,
        )
    } else {
        (
            ((range.high + rng.gen_range(0.01..0.15) * range.band()) * 100.0).round() / 100.0,
            Deviation::AboveMaximum,
        )
    };
    LogEvent {
        time: t + SimDuration::from_secs(seq as u64 * 5),
        payload: Payload::Erd {
            scope,
            detail: ErdDetail::SedcWarning {
                sensor,
                channel: rng.gen_range(0..9),
                reading,
                deviation,
            },
        },
    }
}

/// Recurring warnings from a "chatty" blade over one day (Fig. 9: blades
/// with >1400 mean recurring warnings; one stops after a certain hour).
/// `stop_hour` truncates the stream (24 = full day).
pub fn chatty_blade_day<R: Rng + ?Sized>(
    rng: &mut R,
    blade: BladeId,
    day_start: SimTime,
    rate_per_hour: f64,
    stop_hour: u32,
) -> Vec<LogEvent> {
    let mut events = Vec::new();
    for hour in 0..stop_hour.min(24) {
        // Poisson-ish count per hour.
        let lambda = rate_per_hour.max(0.0);
        let count = (normal_sample(rng, lambda, lambda.sqrt().max(1.0)))
            .round()
            .max(0.0) as u32;
        for _ in 0..count {
            let t = day_start
                + SimDuration::from_hours(hour as u64)
                + SimDuration::from_millis(rng.gen_range(0..3_600_000));
            events.push(sedc_warning(rng, ControllerScope::Blade(blade), t, 0));
        }
    }
    events.sort_by_key(|e| e.time);
    events
}

/// A GPU Xid error on an S5 node (Fig. 15's 1.43% hardware-error slice).
/// Does not fail the node.
pub fn gpu_error_event<R: Rng + ?Sized>(rng: &mut R, node: NodeId, t: SimTime) -> LogEvent {
    LogEvent {
        time: t,
        payload: Payload::Console {
            node,
            detail: ConsoleDetail::GpuError {
                gpu: rng.gen_range(0..2),
                xid: [13, 31, 43, 79][rng.gen_range(0..4)],
            },
        },
    }
}

/// A local-disk error on an S5 node. Does not fail the node.
pub fn disk_error_event(node: NodeId, t: SimTime) -> LogEvent {
    LogEvent {
        time: t,
        payload: Payload::Console {
            node,
            detail: ConsoleDetail::DiskError,
        },
    }
}

/// Software-error noise: a segfault or page-allocation fault from a user
/// process (Fig. 15's 2.16% software slice). Does not fail the node.
pub fn software_error_event<R: Rng + ?Sized>(
    rng: &mut R,
    node: NodeId,
    t: SimTime,
    app: hpc_logs::event::AppKind,
) -> LogEvent {
    let detail = if chance(rng, 0.5) {
        ConsoleDetail::SegFault {
            app,
            pid: rng.gen_range(1_000..60_000),
        }
    } else {
        ConsoleDetail::PageAllocFailure {
            app,
            order: rng.gen_range(0..4),
        }
    };
    LogEvent {
        time: t,
        payload: Payload::Console { node, detail },
    }
}

/// Non-failing OOM episode (Fig. 15's 10.59% slice on S5): the oom-killer
/// reaps a process and logs an oops-style trace, but the node survives.
pub fn oom_noise<R: Rng + ?Sized>(
    rng: &mut R,
    node: NodeId,
    t: SimTime,
    app: hpc_logs::event::AppKind,
) -> Vec<LogEvent> {
    vec![
        LogEvent {
            time: t,
            payload: Payload::Console {
                node,
                detail: ConsoleDetail::OomKill {
                    victim: app,
                    pid: rng.gen_range(1_000..60_000),
                },
            },
        },
        LogEvent {
            time: t + SimDuration::from_secs(2),
            payload: Payload::Console {
                node,
                detail: ConsoleDetail::KernelOops {
                    cause: hpc_logs::event::OopsCause::NullDeref,
                    modules: vec![StackModule::OomKillProcess, StackModule::XpmemFault],
                },
            },
        },
    ]
}

/// Benign interconnect link-error chatter on a blade's router.
pub fn link_noise<R: Rng + ?Sized>(rng: &mut R, blade: BladeId, t: SimTime) -> Vec<LogEvent> {
    let n = rng.gen_range(1..4);
    (0..n)
        .map(|i| {
            let kind = match rng.gen_range(0..10) {
                0..=5 => LinkErrorKind::Crc,
                6..=7 => LinkErrorKind::LaneDegrade,
                8 => LinkErrorKind::Failover { succeeded: true },
                _ => LinkErrorKind::LinkDown,
            };
            LogEvent {
                time: t + SimDuration::from_secs(i as u64 * 11),
                payload: Payload::Erd {
                    scope: ControllerScope::Blade(blade),
                    detail: ErdDetail::LinkError {
                        port: rng.gen_range(0..8),
                        kind,
                    },
                },
            }
        })
        .collect()
}

/// Periodic per-node CPU-temperature telemetry for one blade over a window
/// (the Fig. 11 substrate): one `ec_sedc_data` sample per node channel per
/// `interval`. Powered-off nodes read 0 °C, as in the paper's B2 node.
pub fn temperature_telemetry<R: Rng + ?Sized>(
    rng: &mut R,
    blade: BladeId,
    nodes_off: &[NodeId],
    start: SimTime,
    duration: SimDuration,
    interval: SimDuration,
) -> Vec<LogEvent> {
    let mut events = Vec::new();
    let mut t = start;
    while t < start + duration {
        for node in blade.nodes() {
            let reading = if nodes_off.contains(&node) {
                0.0
            } else {
                (normal_sample(rng, 40.0, 1.8) * 100.0).round() / 100.0
            };
            events.push(LogEvent {
                time: t,
                payload: Payload::Erd {
                    scope: ControllerScope::Blade(blade),
                    detail: ErdDetail::SedcReading {
                        sensor: SensorKind::Temperature,
                        channel: node.slot_in_blade() as u16,
                        reading,
                    },
                },
            });
        }
        t += interval;
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_logs::event::AppKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(77)
    }

    #[test]
    fn benign_nhf_outcomes_cover_both_cases() {
        let mut r = rng();
        let mut seen_off = false;
        let mut seen_skip = false;
        for i in 0..50 {
            let (events, outcome) = benign_nhf(&mut r, NodeId(i), SimTime::EPOCH);
            match outcome {
                BenignNhfOutcome::PoweredOff => {
                    seen_off = true;
                    assert_eq!(events.len(), 2);
                }
                BenignNhfOutcome::SkippedHeartbeat => {
                    seen_skip = true;
                    assert_eq!(events.len(), 1);
                }
            }
        }
        assert!(seen_off && seen_skip);
    }

    #[test]
    fn benign_hw_errors_are_all_correctable() {
        let mut r = rng();
        for e in benign_hw_errors(&mut r, NodeId(4), SimTime::EPOCH) {
            match e.payload {
                Payload::Console { detail, .. } => match detail {
                    ConsoleDetail::Mce { corrected, .. } => assert!(corrected),
                    ConsoleDetail::MemoryError { correctable, .. } => assert!(correctable),
                    other => panic!("unexpected noise detail {other:?}"),
                },
                other => panic!("unexpected payload {other:?}"),
            }
        }
    }

    #[test]
    fn sedc_warnings_are_mostly_below_minimum() {
        let mut r = rng();
        let mut below = 0;
        let mut total = 0;
        for i in 0..200 {
            for e in sedc_warning_burst(&mut r, BladeId(i % 48), SimTime::EPOCH) {
                if let Payload::Erd {
                    detail: ErdDetail::SedcWarning { deviation, .. },
                    ..
                } = e.payload
                {
                    total += 1;
                    if deviation == Deviation::BelowMinimum {
                        below += 1;
                    }
                }
            }
        }
        assert!(total > 100);
        let frac = below as f64 / total as f64;
        assert!(frac > 0.65, "below-minimum fraction {frac}");
    }

    #[test]
    fn sedc_warning_readings_stay_near_the_envelope() {
        use hpc_platform::sensors::SensorKind;
        let mut r = rng();
        for _ in 0..300 {
            for e in sedc_warning_burst(&mut r, BladeId(3), SimTime::EPOCH) {
                if let Payload::Erd {
                    detail:
                        ErdDetail::SedcWarning {
                            sensor,
                            reading,
                            deviation,
                            ..
                        },
                    ..
                } = e.payload
                {
                    let range = sensor.range();
                    match deviation {
                        Deviation::BelowMinimum => {
                            assert!(reading < range.low, "{sensor:?} {reading}");
                            // Within one band-width below the minimum — no
                            // physically absurd values like -68000 RPM.
                            assert!(
                                reading > range.low - range.band(),
                                "{sensor:?} {reading} implausibly low"
                            );
                            if sensor != SensorKind::Temperature {
                                assert!(reading > -range.band(), "{sensor:?} {reading}");
                            }
                        }
                        Deviation::AboveMaximum => {
                            assert!(reading > range.high);
                            assert!(reading < range.high + range.band());
                        }
                        Deviation::Nominal => panic!("warnings are never nominal"),
                    }
                }
            }
        }
    }

    #[test]
    fn chatty_blade_respects_stop_hour() {
        let mut r = rng();
        let events = chatty_blade_day(&mut r, BladeId(7), SimTime::EPOCH, 60.0, 10);
        assert!(!events.is_empty());
        for e in &events {
            assert!(
                e.time.hour_of_day() < 10,
                "event after stop hour: {}",
                e.time
            );
        }
        assert!(events.windows(2).all(|w| w[0].time <= w[1].time));
        // Rough volume: ~60/h over 10h.
        assert!(
            events.len() > 300 && events.len() < 1_000,
            "{}",
            events.len()
        );
    }

    #[test]
    fn temperature_telemetry_covers_blade_and_marks_off_nodes() {
        let mut r = rng();
        let blade = BladeId(2);
        let off = [NodeId(9)]; // node 9 = blade 2, slot 1
        let events = temperature_telemetry(
            &mut r,
            blade,
            &off,
            SimTime::EPOCH,
            SimDuration::from_hours(1),
            SimDuration::from_mins(15),
        );
        assert_eq!(events.len(), 4 * 4); // 4 samples x 4 nodes
        let mut saw_zero = false;
        for e in &events {
            if let Payload::Erd {
                detail:
                    ErdDetail::SedcReading {
                        channel, reading, ..
                    },
                ..
            } = e.payload
            {
                if channel == 1 {
                    assert_eq!(reading, 0.0);
                    saw_zero = true;
                } else {
                    assert!((reading - 40.0).abs() < 10.0, "reading {reading}");
                }
            }
        }
        assert!(saw_zero);
    }

    #[test]
    fn hung_task_has_io_trace() {
        let mut r = rng();
        let e = hung_task_event(&mut r, NodeId(0), SimTime::EPOCH, AppKind::Genomics);
        match e.payload {
            Payload::Console {
                detail: ConsoleDetail::HungTaskTimeout { modules, .. },
                ..
            } => assert!(modules.contains(&StackModule::IoSchedule)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn link_noise_is_rarely_severe() {
        let mut r = rng();
        let mut severe = 0;
        let mut total = 0;
        for _ in 0..300 {
            for e in link_noise(&mut r, BladeId(0), SimTime::EPOCH) {
                if let Payload::Erd {
                    detail: ErdDetail::LinkError { kind, .. },
                    ..
                } = e.payload
                {
                    total += 1;
                    if kind.is_severe() {
                        severe += 1;
                    }
                }
            }
        }
        assert!((severe as f64 / total as f64) < 0.25);
    }
}

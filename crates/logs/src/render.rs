//! Rendering structured events into realistic text log lines.
//!
//! Each [`LogEvent`] renders into one or more lines of its source stream
//! (kernel oopses and hung-task reports append multi-line `Call Trace:`
//! sections, as in real console logs). The formats imitate the messages the
//! paper quotes: `ec_node_heartbeat_fault`, `ec_sedc_warning`,
//! `L0_sysd_mce`, `Out of memory: Kill process …`, the enigmatic
//! `type:2; severity:80; …` BIOS pattern, and so on.
//!
//! Each line is written in one pass into the one `String` it is kept as:
//! the head (timestamp, source, tag) once, then the message, with cnames,
//! nids and node lists written in place. A call trace copies its record's
//! head onto each of its lines.
//!
//! Rendering and parsing ([`crate::parse`]) are exact inverses; a property
//! test in the parse module round-trips every event class.

use std::fmt::{self, Write};

use hpc_platform::id::Cname;
use hpc_platform::system::SchedulerKind;
use hpc_platform::NodeId;

use crate::event::{
    ConsoleDetail, ControllerDetail, ControllerScope, ErdDetail, LogEvent, Nid, Payload,
    SchedulerDetail, StackModule,
};
use crate::time::SimTime;

/// Bytes reserved for a line: the longest fixed formats fit without
/// growing; a long node list grows its line once or twice.
const LINE_CAPACITY: usize = 128;

/// Renders an event into `out`, one string per physical log line.
///
/// `scheduler` selects the daemon tag of scheduler lines (`slurmctld:` for
/// Slurm systems, `pbs_server:` for Torque).
pub fn render_into(event: &LogEvent, scheduler: SchedulerKind, out: &mut Vec<String>) {
    let ts = event.time;
    match &event.payload {
        Payload::Console { node, detail } => render_console(ts, *node, detail, out),
        Payload::Controller { scope, detail } => render_controller(ts, *scope, detail, out),
        Payload::Erd { scope, detail } => render_erd(ts, *scope, detail, out),
        Payload::Scheduler { detail } => render_scheduler(ts, scheduler, detail, out),
    }
    .expect("writing to a String cannot fail");
}

/// Convenience wrapper returning freshly allocated lines.
pub fn render(event: &LogEvent, scheduler: SchedulerKind) -> Vec<String> {
    let mut out = Vec::with_capacity(1);
    render_into(event, scheduler, &mut out);
    out
}

fn render_console(
    ts: SimTime,
    node: NodeId,
    detail: &ConsoleDetail,
    out: &mut Vec<String>,
) -> fmt::Result {
    let mut line = String::with_capacity(LINE_CAPACITY);
    write!(line, "{ts} {} kernel:", node.cname())?;
    let head = line.len();
    let mut trace = None;
    match detail {
        ConsoleDetail::Mce {
            bank,
            kind,
            corrected,
        } => {
            let status = if *corrected {
                "corrected"
            } else {
                "uncorrected"
            };
            write!(
                line,
                " mce: [Hardware Error]: Machine Check Exception bank={bank} kind={} status={status}",
                kind.token()
            )?;
        }
        ConsoleDetail::MemoryError { dimm, correctable } => {
            let kind = if *correctable {
                "correctable"
            } else {
                "uncorrectable"
            };
            write!(line, " EDAC MC0: {kind} memory error on DIMM {dimm}")?;
        }
        ConsoleDetail::SegFault { app, pid } => {
            let exe = app.executable();
            write!(
                line,
                " {exe}[{pid}]: segfault at 7f2e00dead ip 000000000040beef error 6 in {exe}"
            )?;
        }
        ConsoleDetail::OomKill { victim, pid } => {
            write!(
                line,
                " Out of memory: Kill process {pid} ({}) score 912 or sacrifice child",
                victim.executable()
            )?;
        }
        ConsoleDetail::KernelOops { cause, modules } => {
            write!(line, " {}", cause.first_line())?;
            trace = Some(modules);
        }
        ConsoleDetail::KernelPanic { reason } => {
            write!(line, " Kernel panic - not syncing: {}", reason.message())?;
        }
        ConsoleDetail::LustreError { kind } => {
            write!(line, " LustreError: 11-0: fs0-OST0001: {}", kind.token())?;
        }
        ConsoleDetail::HungTaskTimeout { task, pid, modules } => {
            write!(
                line,
                " INFO: task {}:{pid} blocked for more than 120 seconds.",
                task.executable()
            )?;
            trace = Some(modules);
        }
        ConsoleDetail::CpuStall { cpu } => {
            write!(line, " INFO: rcu_sched self-detected stall on CPU {cpu}")?;
        }
        ConsoleDetail::PageAllocFailure { app, order } => {
            write!(
                line,
                " {}: page allocation failure: order:{order}, mode:0x280da",
                app.executable()
            )?;
        }
        ConsoleDetail::GpuError { gpu, xid } => {
            write!(line, " NVRM: Xid {xid} on GPU {gpu}")?;
        }
        ConsoleDetail::DiskError => line.push_str(" sd 0:0:0:0: [sda] Unhandled error code"),
        ConsoleDetail::BiosError => {
            line.push_str(" type:2; severity:80; class:3; subclass:D; operation: 2")
        }
        ConsoleDetail::NhcWarning { test } => {
            write!(line, " NHC: warning test={}", test.token())?;
        }
        ConsoleDetail::UnexpectedShutdown => {
            line.push_str(" EMERGENCY: node unexpectedly shut down")
        }
        ConsoleDetail::GracefulShutdown => {
            line.push_str(" reboot: System halted (scheduled maintenance)")
        }
    }
    let trace = trace.map(|modules| call_trace(&line[..head], modules));
    out.push(line);
    out.extend(trace.into_iter().flatten());
    Ok(())
}

/// A `Call Trace:` section, one frame per module, each line opening with
/// the record's `head`.
fn call_trace(head: &str, modules: &[StackModule]) -> Vec<String> {
    let frames = modules
        .iter()
        .map(|m| format!("{head}  [<ffffffff8100beef>] {}+0x132/0x240", m.symbol()));
    std::iter::once(format!("{head} Call Trace:"))
        .chain(frames)
        .collect()
}

/// The cname a controller or ERD line names as its source.
fn scope_cname(scope: ControllerScope) -> Cname {
    match scope {
        ControllerScope::Blade(b) => b.cname(),
        ControllerScope::Cabinet(c) => c.cname(),
    }
}

fn render_controller(
    ts: SimTime,
    scope: ControllerScope,
    detail: &ControllerDetail,
    out: &mut Vec<String>,
) -> fmt::Result {
    let tag = match scope {
        ControllerScope::Blade(_) => "bc",
        ControllerScope::Cabinet(_) => "cc",
    };
    let mut line = String::with_capacity(LINE_CAPACITY);
    write!(line, "{ts} {} {tag}:", scope_cname(scope))?;
    match detail {
        ControllerDetail::NodeHeartbeatFault { node } => write!(
            line,
            " ec_node_heartbeat_fault: node {} missed heartbeat",
            node.cname()
        )?,
        ControllerDetail::NodeVoltageFault { node } => write!(
            line,
            " ec_node_voltage_fault: node {} voltage out of range",
            node.cname()
        )?,
        ControllerDetail::BcHeartbeatFault => {
            line.push_str(" ec_bc_heartbeat_fault: blade controller heartbeat lost")
        }
        ControllerDetail::EcbFault { channel } => write!(
            line,
            " ecb_fault: electronic circuit breaker tripped channel={channel}"
        )?,
        ControllerDetail::SensorReadFailed { channel } => {
            write!(line, " get sensor reading failed channel={channel}")?
        }
        ControllerDetail::CabinetPowerFault => line.push_str(" cabinet power fault"),
        ControllerDetail::MicroControllerFault => line.push_str(" cabinet micro controller fault"),
        ControllerDetail::CommunicationFault => {
            line.push_str(" communication fault: controller unreachable")
        }
        ControllerDetail::ModuleHealthFault => line.push_str(" module health fault"),
        ControllerDetail::RpmFault { fan } => write!(line, " fan rpm fault fan={fan}")?,
        ControllerDetail::L0SysdMce { node } => {
            write!(line, " L0_sysd_mce: memory error node={}", node.cname())?
        }
        ControllerDetail::NodePowerOff { node } => {
            write!(line, " node {} powered off by operator", node.cname())?
        }
    }
    out.push(line);
    Ok(())
}

fn render_erd(
    ts: SimTime,
    scope: ControllerScope,
    detail: &ErdDetail,
    out: &mut Vec<String>,
) -> fmt::Result {
    let src = scope_cname(scope);
    let mut line = String::with_capacity(LINE_CAPACITY);
    write!(line, "{ts} erd:")?;
    match detail {
        ErdDetail::SedcWarning {
            sensor,
            channel,
            reading,
            deviation,
        } => write!(
            line,
            " ec_sedc_warning src={src} sensor={} ch={channel} reading={reading} {}",
            sensor.mnemonic(),
            deviation.as_str()
        )?,
        ErdDetail::SedcReading {
            sensor,
            channel,
            reading,
        } => write!(
            line,
            " ec_sedc_data src={src} sensor={} ch={channel} reading={reading}",
            sensor.mnemonic()
        )?,
        ErdDetail::HwError { node, component } => write!(
            line,
            " ec_hw_error src={} component={}",
            node.cname(),
            component.mnemonic()
        )?,
        ErdDetail::HeartbeatStop => write!(line, " ec_heartbeat_stop src={src}")?,
        ErdDetail::L0Failed => write!(line, " ec_l0_failed src={src}")?,
        ErdDetail::LinkError { port, kind } => write!(
            line,
            " ec_link_error src={src} port={port} {}",
            kind.as_log_fragment()
        )?,
        ErdDetail::Environment { air_flow_reduced } => {
            let action = if *air_flow_reduced {
                "air flow reduced"
            } else {
                "fan speed adjusted"
            };
            write!(line, " ec_environment src={src} {action}")?
        }
        ErdDetail::CabinetSensorCheck { ok } => write!(
            line,
            " ec_cabinet_sensor_check src={src} status={}",
            if *ok { "ok" } else { "warn" }
        )?,
        ErdDetail::NodeFailed { node } => write!(line, " ec_node_failed src={}", node.cname())?,
    }
    out.push(line);
    Ok(())
}

fn render_scheduler(
    ts: SimTime,
    scheduler: SchedulerKind,
    detail: &SchedulerDetail,
    out: &mut Vec<String>,
) -> fmt::Result {
    let daemon = match scheduler {
        SchedulerKind::Slurm => "slurmctld",
        SchedulerKind::Torque => "pbs_server",
    };
    let mut line = String::with_capacity(LINE_CAPACITY);
    write!(line, "{ts} {daemon}:")?;
    match detail {
        SchedulerDetail::JobStart {
            job,
            apid,
            user,
            app,
            nodes,
            mem_per_node_mib,
        } => {
            write!(
                line,
                " job={job} apid={apid} user={user} app={} mem_per_node={mem_per_node_mib}MiB nodes=",
                app.executable()
            )?;
            write_nid_list(&mut line, nodes)?;
            line.push_str(" start");
        }
        SchedulerDetail::JobEnd {
            job,
            exit_code,
            reason,
        } => write!(
            line,
            " job={job} end exit_code={exit_code} reason={}",
            reason.token()
        )?,
        SchedulerDetail::NhcResult { node, test, passed } => write!(
            line,
            " nhc: node={} test={} status={}",
            Nid(*node),
            test.token(),
            if *passed { "pass" } else { "fail" }
        )?,
        SchedulerDetail::NodeStateChange { node, state } => {
            write!(line, " node={} state={}", Nid(*node), state.token())?
        }
        SchedulerDetail::EpilogueCleanup { job, node } => {
            write!(line, " epilogue: job={job} node={} cleaned", Nid(*node))?
        }
        SchedulerDetail::MemOverallocation {
            job,
            node,
            requested_mib,
            available_mib,
        } => write!(
            line,
            " sched: job={job} node={} memory overallocation requested={requested_mib}MiB available={available_mib}MiB",
            Nid(*node)
        )?,
    }
    out.push(line);
    Ok(())
}

/// Writes a node list in Slurm hostlist syntax: `nid00007` for a single
/// node, `nid[00001-00004,00007]` otherwise. The input need not be sorted;
/// the output enumerates sorted, deduplicated ranges.
fn write_nid_list(line: &mut String, nodes: &[NodeId]) -> fmt::Result {
    let mut sorted: Vec<u32> = nodes.iter().map(|n| n.0).collect();
    sorted.sort_unstable();
    sorted.dedup();
    if let [only] = sorted[..] {
        return write!(line, "{}", Nid(NodeId(only)));
    }
    line.push_str("nid[");
    let mut rest = &sorted[..];
    while let Some(&start) = rest.first() {
        // The run of consecutive ids opening `rest`.
        let run = 1 + rest.windows(2).take_while(|w| w[1] == w[0] + 1).count();
        let end = rest[run - 1];
        if start != sorted[0] {
            line.push(',');
        }
        if start == end {
            write!(line, "{start:05}")?;
        } else {
            write!(line, "{start:05}-{end:05}")?;
        }
        rest = &rest[run..];
    }
    line.push(']');
    Ok(())
}

/// Expands Slurm hostlist syntax back into node ids. Accepts both the
/// single-node form (`nid00007`) and the bracketed form.
pub fn expand_nid_list(s: &str) -> Option<Vec<NodeId>> {
    if let Some(inner) = s.strip_prefix("nid[").and_then(|r| r.strip_suffix(']')) {
        if inner.is_empty() {
            return Some(Vec::new());
        }
        let mut nodes = Vec::new();
        for part in inner.split(',') {
            match part.split_once('-') {
                Some((a, b)) => {
                    let a: u32 = a.parse().ok()?;
                    let b: u32 = b.parse().ok()?;
                    if a > b {
                        return None;
                    }
                    nodes.extend((a..=b).map(NodeId));
                }
                None => nodes.push(NodeId(part.parse().ok()?)),
            }
        }
        Some(nodes)
    } else {
        crate::event::parse_nid(s).map(|n| vec![n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AppKind, JobEndReason, JobId, LogEvent, OopsCause};
    use hpc_platform::BladeId;

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn compress_nid_list(nodes: &[NodeId]) -> String {
        let mut list = String::new();
        write_nid_list(&mut list, nodes).unwrap();
        list
    }

    #[test]
    fn mce_line_contains_all_fields() {
        let e = LogEvent {
            time: at(0),
            payload: Payload::Console {
                node: NodeId(5),
                detail: ConsoleDetail::Mce {
                    bank: 3,
                    kind: crate::event::MceKind::Dimm,
                    corrected: false,
                },
            },
        };
        let lines = render(&e, SchedulerKind::Slurm);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("Machine Check Exception"));
        assert!(lines[0].contains("bank=3"));
        assert!(lines[0].contains("kind=dimm"));
        assert!(lines[0].contains("status=uncorrected"));
        assert!(lines[0].starts_with("2016-01-01T00:00:00.000 c0-0c0s1n1"));
    }

    #[test]
    fn oops_renders_multi_line_trace() {
        let e = LogEvent {
            time: at(1000),
            payload: Payload::Console {
                node: NodeId(0),
                detail: ConsoleDetail::KernelOops {
                    cause: OopsCause::PagingRequest,
                    modules: vec![StackModule::DvsIpcMsg, StackModule::LdlmBl],
                },
            },
        };
        let lines = render(&e, SchedulerKind::Slurm);
        assert_eq!(lines.len(), 4); // first line + "Call Trace:" + 2 frames
        assert!(lines[0].contains("unable to handle kernel paging request"));
        assert!(lines[1].ends_with("Call Trace:"));
        assert!(lines[2].contains("dvs_ipc_msg+0x"));
        assert!(lines[3].contains("ldlm_bl_thread_main+0x"));
    }

    #[test]
    fn controller_lines_carry_scope_cname() {
        let e = LogEvent {
            time: at(0),
            payload: Payload::Controller {
                scope: ControllerScope::Blade(BladeId(1)),
                detail: ControllerDetail::NodeHeartbeatFault { node: NodeId(5) },
            },
        };
        let lines = render(&e, SchedulerKind::Slurm);
        assert!(lines[0].contains("c0-0c0s1 bc:"));
        assert!(lines[0].contains("ec_node_heartbeat_fault"));
        assert!(lines[0].contains("c0-0c0s1n1")); // node 5 = blade 1, n1
    }

    #[test]
    fn scheduler_daemon_tag_follows_kind() {
        let e = LogEvent {
            time: at(0),
            payload: Payload::Scheduler {
                detail: SchedulerDetail::JobEnd {
                    job: JobId(9),
                    exit_code: 1,
                    reason: JobEndReason::AppError,
                },
            },
        };
        assert!(render(&e, SchedulerKind::Slurm)[0].contains("slurmctld:"));
        assert!(render(&e, SchedulerKind::Torque)[0].contains("pbs_server:"));
    }

    #[test]
    fn job_start_uses_compressed_nidlist() {
        let e = LogEvent {
            time: at(0),
            payload: Payload::Scheduler {
                detail: SchedulerDetail::JobStart {
                    job: JobId(1),
                    apid: crate::event::Apid(77),
                    user: 1001,
                    app: AppKind::MpiSimulation,
                    nodes: vec![NodeId(1), NodeId(2), NodeId(3), NodeId(7)],
                    mem_per_node_mib: 4096,
                },
            },
        };
        let line = &render(&e, SchedulerKind::Slurm)[0];
        assert!(line.contains("nodes=nid[00001-00003,00007]"), "{line}");
        assert!(line.contains("apid=77"));
        assert!(line.contains("mem_per_node=4096MiB"));
    }

    #[test]
    fn nid_list_compress_expand_round_trip() {
        let cases: Vec<Vec<u32>> = vec![
            vec![],
            vec![0],
            vec![5, 6, 7],
            vec![1, 3, 5],
            vec![10, 11, 12, 40, 41, 99],
            (100..200).collect(),
        ];
        for raw in cases {
            let nodes: Vec<NodeId> = raw.iter().copied().map(NodeId).collect();
            let s = compress_nid_list(&nodes);
            let back = expand_nid_list(&s).unwrap();
            assert_eq!(back, nodes, "via {s}");
        }
    }

    #[test]
    fn nid_list_handles_unsorted_and_duplicates() {
        let nodes = vec![NodeId(7), NodeId(5), NodeId(6), NodeId(7)];
        let s = compress_nid_list(&nodes);
        assert_eq!(s, "nid[00005-00007]");
    }

    #[test]
    fn expand_rejects_malformed() {
        for bad in ["nid[00005-]", "nid[x]", "nid[00007-00005]", "fred"] {
            assert_eq!(expand_nid_list(bad), None, "{bad}");
        }
    }

    #[test]
    fn bios_pattern_matches_paper_text() {
        let e = LogEvent {
            time: at(0),
            payload: Payload::Console {
                node: NodeId(0),
                detail: ConsoleDetail::BiosError,
            },
        };
        let line = &render(&e, SchedulerKind::Slurm)[0];
        assert!(line.contains("type:2; severity:80; class:3; subclass:D; operation: 2"));
    }

    #[test]
    fn erd_sedc_warning_format() {
        let e = LogEvent {
            time: at(0),
            payload: Payload::Erd {
                scope: ControllerScope::Cabinet(hpc_platform::CabinetId(0)),
                detail: ErdDetail::SedcWarning {
                    sensor: hpc_platform::sensors::SensorKind::Temperature,
                    channel: 3,
                    reading: 8.42,
                    deviation: hpc_platform::sensors::Deviation::BelowMinimum,
                },
            },
        };
        let line = &render(&e, SchedulerKind::Slurm)[0];
        assert!(
            line.contains(
                "ec_sedc_warning src=c0-0 sensor=TEMP ch=3 reading=8.42 below minimum threshold"
            ),
            "{line}"
        );
    }
}

//! The renderer as it was before lines were written in one pass, frozen
//! as a test oracle: each line is `format!`ed from a separately formatted
//! `head`, an ERD source is a `to_string()`ed cname, node lists are joined
//! from a `Vec<String>` of ranges, and timestamps and cnames go through
//! the chains of padded `write!` arguments `SimTime` and `Cname` used.
//! The differential property tests in `render_oracle.rs` require the
//! renderer under test to produce the same lines.
//!
//! Not to be "modernised": its value is that it does not share code with
//! the renderer under test. The render functions are copied as they were,
//! with three mechanical substitutions so that they format through the
//! frozen copies below and not through today's `Display` impls: `ts` is a
//! [`Stamp`], `x.cname()` is `cname(x)`, and `nid_name` is the copy here.

#![allow(dead_code)]

use std::fmt;

use hpc_platform::id::Cname;
use hpc_platform::system::SchedulerKind;
use hpc_platform::{BladeId, CabinetId, NodeId};

use hpc_logs::event::{
    ConsoleDetail, ControllerDetail, ControllerScope, ErdDetail, LogEvent, Payload,
    SchedulerDetail, StackModule,
};
use hpc_logs::time::{SimTime, MILLIS_PER_DAY, MILLIS_PER_HOUR, MILLIS_PER_MIN, MILLIS_PER_SEC};

/// Days from 1970-01-01 to the simulation epoch 2016-01-01 (16801 days).
const EPOCH_DAYS_FROM_UNIX: i64 = 16_801;

/// A timestamp formatted the way `SimTime`'s `Display` did.
#[derive(Debug, Clone, Copy)]
pub struct Stamp(pub SimTime);

impl fmt::Display for Stamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = to_civil(self.0);
        write!(
            f,
            "{:04}-{:02}-{:02}T{:02}:{:02}:{:02}.{:03}",
            c.year, c.month, c.day, c.hour, c.minute, c.second, c.millisecond
        )
    }
}

/// Calendar decomposition of a [`SimTime`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CivilTime {
    year: i64,
    month: u8,
    day: u8,
    hour: u8,
    minute: u8,
    second: u8,
    millisecond: u16,
}

/// Breaks the instant into calendar components.
fn to_civil(t: SimTime) -> CivilTime {
    let days = (t.0 / MILLIS_PER_DAY) as i64 + EPOCH_DAYS_FROM_UNIX;
    let (year, month, day) = civil_from_days(days);
    let rem = t.0 % MILLIS_PER_DAY;
    CivilTime {
        year,
        month,
        day,
        hour: (rem / MILLIS_PER_HOUR) as u8,
        minute: ((rem % MILLIS_PER_HOUR) / MILLIS_PER_MIN) as u8,
        second: ((rem % MILLIS_PER_MIN) / MILLIS_PER_SEC) as u8,
        millisecond: (rem % MILLIS_PER_SEC) as u16,
    }
}

/// Civil date for days since 1970-01-01 (Hinnant's `civil_from_days`).
fn civil_from_days(z: i64) -> (i64, u8, u8) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u8;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u8;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// A cname formatted the way `Cname`'s `Display` did.
#[derive(Debug, Clone, Copy)]
pub struct OldCname(pub Cname);

impl fmt::Display for OldCname {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = &self.0;
        write!(f, "c{}-{}", c.column, c.row)?;
        if let Some(ch) = c.chassis {
            write!(f, "c{ch}")?;
            if let Some(s) = c.slot {
                write!(f, "s{s}")?;
                if let Some(n) = c.node {
                    write!(f, "n{n}")?;
                }
            }
        }
        Ok(())
    }
}

/// The ids a log line names by cname.
pub trait Named {
    fn platform_cname(self) -> Cname;
}

impl Named for NodeId {
    fn platform_cname(self) -> Cname {
        self.cname()
    }
}

impl Named for BladeId {
    fn platform_cname(self) -> Cname {
        self.cname()
    }
}

impl Named for CabinetId {
    fn platform_cname(self) -> Cname {
        self.cname()
    }
}

impl<T: Named + Copy> Named for &T {
    fn platform_cname(self) -> Cname {
        (*self).platform_cname()
    }
}

fn cname(id: impl Named) -> OldCname {
    OldCname(id.platform_cname())
}

/// Renders a node's scheduler name (`nid00042`).
pub fn nid_name(node: NodeId) -> String {
    format!("nid{:05}", node.0)
}

/// Renders an event into `out`, one string per physical log line.
///
/// `scheduler` selects the daemon tag of scheduler lines (`slurmctld:` for
/// Slurm systems, `pbs_server:` for Torque).
pub fn render_into(event: &LogEvent, scheduler: SchedulerKind, out: &mut Vec<String>) {
    let ts = Stamp(event.time);
    match &event.payload {
        Payload::Console { node, detail } => render_console(ts, *node, detail, out),
        Payload::Controller { scope, detail } => render_controller(ts, *scope, detail, out),
        Payload::Erd { scope, detail } => render_erd(ts, *scope, detail, out),
        Payload::Scheduler { detail } => render_scheduler(ts, scheduler, detail, out),
    }
}

/// Convenience wrapper returning freshly allocated lines.
pub fn render(event: &LogEvent, scheduler: SchedulerKind) -> Vec<String> {
    let mut out = Vec::with_capacity(1);
    render_into(event, scheduler, &mut out);
    out
}

fn render_console(ts: Stamp, node: NodeId, detail: &ConsoleDetail, out: &mut Vec<String>) {
    let head = format!("{ts} {} kernel:", cname(node));
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
            out.push(format!(
                "{head} mce: [Hardware Error]: Machine Check Exception bank={bank} kind={} status={status}",
                kind.token()
            ));
        }
        ConsoleDetail::MemoryError { dimm, correctable } => {
            let kind = if *correctable {
                "correctable"
            } else {
                "uncorrectable"
            };
            out.push(format!(
                "{head} EDAC MC0: {kind} memory error on DIMM {dimm}"
            ));
        }
        ConsoleDetail::SegFault { app, pid } => {
            let exe = app.executable();
            out.push(format!(
                "{head} {exe}[{pid}]: segfault at 7f2e00dead ip 000000000040beef error 6 in {exe}"
            ));
        }
        ConsoleDetail::OomKill { victim, pid } => {
            out.push(format!(
                "{head} Out of memory: Kill process {pid} ({}) score 912 or sacrifice child",
                victim.executable()
            ));
        }
        ConsoleDetail::KernelOops { cause, modules } => {
            out.push(format!("{head} {}", cause.first_line()));
            render_call_trace(&head, modules, out);
        }
        ConsoleDetail::KernelPanic { reason } => {
            out.push(format!(
                "{head} Kernel panic - not syncing: {}",
                reason.message()
            ));
        }
        ConsoleDetail::LustreError { kind } => {
            out.push(format!(
                "{head} LustreError: 11-0: fs0-OST0001: {}",
                kind.token()
            ));
        }
        ConsoleDetail::HungTaskTimeout { task, pid, modules } => {
            out.push(format!(
                "{head} INFO: task {}:{pid} blocked for more than 120 seconds.",
                task.executable()
            ));
            render_call_trace(&head, modules, out);
        }
        ConsoleDetail::CpuStall { cpu } => {
            out.push(format!(
                "{head} INFO: rcu_sched self-detected stall on CPU {cpu}"
            ));
        }
        ConsoleDetail::PageAllocFailure { app, order } => {
            out.push(format!(
                "{head} {}: page allocation failure: order:{order}, mode:0x280da",
                app.executable()
            ));
        }
        ConsoleDetail::GpuError { gpu, xid } => {
            out.push(format!("{head} NVRM: Xid {xid} on GPU {gpu}"));
        }
        ConsoleDetail::DiskError => {
            out.push(format!("{head} sd 0:0:0:0: [sda] Unhandled error code"));
        }
        ConsoleDetail::BiosError => {
            out.push(format!(
                "{head} type:2; severity:80; class:3; subclass:D; operation: 2"
            ));
        }
        ConsoleDetail::NhcWarning { test } => {
            out.push(format!("{head} NHC: warning test={}", test.token()));
        }
        ConsoleDetail::UnexpectedShutdown => {
            out.push(format!("{head} EMERGENCY: node unexpectedly shut down"));
        }
        ConsoleDetail::GracefulShutdown => {
            out.push(format!(
                "{head} reboot: System halted (scheduled maintenance)"
            ));
        }
    }
}

/// Appends a `Call Trace:` section; one frame per module.
fn render_call_trace(head: &str, modules: &[StackModule], out: &mut Vec<String>) {
    out.push(format!("{head} Call Trace:"));
    for m in modules {
        out.push(format!(
            "{head}  [<ffffffff8100beef>] {}+0x132/0x240",
            m.symbol()
        ));
    }
}

fn render_controller(
    ts: Stamp,
    scope: ControllerScope,
    detail: &ControllerDetail,
    out: &mut Vec<String>,
) {
    let head = match scope {
        ControllerScope::Blade(b) => format!("{ts} {} bc:", cname(b)),
        ControllerScope::Cabinet(c) => format!("{ts} {} cc:", cname(c)),
    };
    let line = match detail {
        ControllerDetail::NodeHeartbeatFault { node } => format!(
            "{head} ec_node_heartbeat_fault: node {} missed heartbeat",
            cname(node)
        ),
        ControllerDetail::NodeVoltageFault { node } => format!(
            "{head} ec_node_voltage_fault: node {} voltage out of range",
            cname(node)
        ),
        ControllerDetail::BcHeartbeatFault => {
            format!("{head} ec_bc_heartbeat_fault: blade controller heartbeat lost")
        }
        ControllerDetail::EcbFault { channel } => {
            format!("{head} ecb_fault: electronic circuit breaker tripped channel={channel}")
        }
        ControllerDetail::SensorReadFailed { channel } => {
            format!("{head} get sensor reading failed channel={channel}")
        }
        ControllerDetail::CabinetPowerFault => format!("{head} cabinet power fault"),
        ControllerDetail::MicroControllerFault => {
            format!("{head} cabinet micro controller fault")
        }
        ControllerDetail::CommunicationFault => {
            format!("{head} communication fault: controller unreachable")
        }
        ControllerDetail::ModuleHealthFault => format!("{head} module health fault"),
        ControllerDetail::RpmFault { fan } => format!("{head} fan rpm fault fan={fan}"),
        ControllerDetail::L0SysdMce { node } => {
            format!("{head} L0_sysd_mce: memory error node={}", cname(node))
        }
        ControllerDetail::NodePowerOff { node } => {
            format!("{head} node {} powered off by operator", cname(node))
        }
    };
    out.push(line);
}

fn render_erd(ts: Stamp, scope: ControllerScope, detail: &ErdDetail, out: &mut Vec<String>) {
    let src = match scope {
        ControllerScope::Blade(b) => cname(b).to_string(),
        ControllerScope::Cabinet(c) => cname(c).to_string(),
    };
    let head = format!("{ts} erd:");
    let line = match detail {
        ErdDetail::SedcWarning {
            sensor,
            channel,
            reading,
            deviation,
        } => format!(
            "{head} ec_sedc_warning src={src} sensor={} ch={channel} reading={reading} {}",
            sensor.mnemonic(),
            deviation.as_str()
        ),
        ErdDetail::SedcReading {
            sensor,
            channel,
            reading,
        } => format!(
            "{head} ec_sedc_data src={src} sensor={} ch={channel} reading={reading}",
            sensor.mnemonic()
        ),
        ErdDetail::HwError { node, component } => format!(
            "{head} ec_hw_error src={} component={}",
            cname(node),
            component.mnemonic()
        ),
        ErdDetail::HeartbeatStop => format!("{head} ec_heartbeat_stop src={src}"),
        ErdDetail::L0Failed => format!("{head} ec_l0_failed src={src}"),
        ErdDetail::LinkError { port, kind } => format!(
            "{head} ec_link_error src={src} port={port} {}",
            kind.as_log_fragment()
        ),
        ErdDetail::Environment { air_flow_reduced } => {
            let action = if *air_flow_reduced {
                "air flow reduced"
            } else {
                "fan speed adjusted"
            };
            format!("{head} ec_environment src={src} {action}")
        }
        ErdDetail::CabinetSensorCheck { ok } => format!(
            "{head} ec_cabinet_sensor_check src={src} status={}",
            if *ok { "ok" } else { "warn" }
        ),
        ErdDetail::NodeFailed { node } => {
            format!("{head} ec_node_failed src={}", cname(node))
        }
    };
    out.push(line);
}

fn render_scheduler(
    ts: Stamp,
    scheduler: SchedulerKind,
    detail: &SchedulerDetail,
    out: &mut Vec<String>,
) {
    let daemon = match scheduler {
        SchedulerKind::Slurm => "slurmctld",
        SchedulerKind::Torque => "pbs_server",
    };
    let head = format!("{ts} {daemon}:");
    let line = match detail {
        SchedulerDetail::JobStart {
            job,
            apid,
            user,
            app,
            nodes,
            mem_per_node_mib,
        } => format!(
            "{head} job={job} apid={apid} user={user} app={} mem_per_node={mem_per_node_mib}MiB nodes={} start",
            app.executable(),
            compress_nid_list(nodes)
        ),
        SchedulerDetail::JobEnd {
            job,
            exit_code,
            reason,
        } => format!(
            "{head} job={job} end exit_code={exit_code} reason={}",
            reason.token()
        ),
        SchedulerDetail::NhcResult { node, test, passed } => format!(
            "{head} nhc: node={} test={} status={}",
            nid_name(*node),
            test.token(),
            if *passed { "pass" } else { "fail" }
        ),
        SchedulerDetail::NodeStateChange { node, state } => format!(
            "{head} node={} state={}",
            nid_name(*node),
            state.token()
        ),
        SchedulerDetail::EpilogueCleanup { job, node } => format!(
            "{head} epilogue: job={job} node={} cleaned",
            nid_name(*node)
        ),
        SchedulerDetail::MemOverallocation {
            job,
            node,
            requested_mib,
            available_mib,
        } => format!(
            "{head} sched: job={job} node={} memory overallocation requested={requested_mib}MiB available={available_mib}MiB",
            nid_name(*node)
        ),
    };
    out.push(line);
}

/// Compresses a node list into Slurm hostlist syntax: `nid00007` for a
/// single node, `nid[00001-00004,00007]` otherwise. The input need not be
/// sorted; the output enumerates sorted, deduplicated ranges.
fn compress_nid_list(nodes: &[NodeId]) -> String {
    if nodes.is_empty() {
        return "nid[]".to_string();
    }
    let mut sorted: Vec<u32> = nodes.iter().map(|n| n.0).collect();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted.len() == 1 {
        return nid_name(NodeId(sorted[0]));
    }
    let mut parts: Vec<String> = Vec::new();
    let mut start = sorted[0];
    let mut prev = sorted[0];
    for &n in &sorted[1..] {
        if n == prev + 1 {
            prev = n;
            continue;
        }
        parts.push(range_part(start, prev));
        start = n;
        prev = n;
    }
    parts.push(range_part(start, prev));
    format!("nid[{}]", parts.join(","))
}

fn range_part(start: u32, end: u32) -> String {
    if start == end {
        format!("{start:05}")
    } else {
        format!("{start:05}-{end:05}")
    }
}

//! The line parsers as they were before the scan-once rewrite, frozen as a
//! test oracle: `field()` restarts a substring search from the head of the
//! payload for every key, `split_timestamp` slices and `str::parse`s each
//! timestamp field. The differential property tests feed the same lines to
//! this module and to `hpc_logs::parse::LogParser` and require identical
//! `(events, parsed_lines, skipped_lines)` — the verdict of every line,
//! clean or hostile, must not have moved.
//!
//! Not to be "modernised": its value is that it does not share code with
//! the parser under test (only the token vocabularies in `hpc_logs::event`,
//! `Cname`'s grammar and the calendar arithmetic, none of which the rewrite
//! touched).

#![allow(dead_code)]

use std::collections::HashMap;

use hpc_platform::components::Component;
use hpc_platform::id::Cname;
use hpc_platform::interconnect::LinkErrorKind;
use hpc_platform::sensors::{Deviation, SensorKind};
use hpc_platform::NodeId;

use hpc_logs::event::{
    parse_nid, Apid, AppKind, ConsoleDetail, ControllerDetail, ControllerScope, ErdDetail,
    JobEndReason, JobId, LogEvent, LogSource, LustreErrorKind, MceKind, NhcTest, NodeState,
    OopsCause, PanicReason, Payload, SchedulerDetail, StackModule,
};
use hpc_logs::render::expand_nid_list;
use hpc_logs::time::SimTime;

/// What a pending multi-line console report will become.
#[derive(Debug, Clone)]
enum PendKind {
    Oops(OopsCause),
    Hung { task: AppKind, pid: u32 },
}

#[derive(Debug, Clone)]
struct PendingTrace {
    time: SimTime,
    kind: PendKind,
    modules: Vec<StackModule>,
}

/// Structural shape of one console line, independent of parser state.
///
/// This is the classification [`LogParser`] switches on; the chunked parser
/// (`hpc_logs::chunk`) reuses it so both paths agree byte-for-byte on what a
/// line *is* — only what to *do* with continuation lines depends on whether
/// the preceding context is known.
enum ConsoleLine<'a> {
    /// Line without a valid `<ts> <cname> kernel: ` envelope — always skipped,
    /// never touches parser state.
    Unrecognised,
    /// A `Call Trace:` header for `node`.
    CallTrace(NodeId),
    /// A stack frame for `node`. `None` when the frame is malformed or names
    /// an unknown symbol (skipped regardless of pending state).
    Frame(NodeId, Option<StackModule>),
    /// Any other well-enveloped line: completes a pending report for `node`
    /// before being interpreted on its own.
    Other(NodeId, SimTime, &'a str),
}

/// Classifies a console line. Pure: no parser state involved.
fn classify_console(line: &str) -> ConsoleLine<'_> {
    let Some((time, rest)) = split_timestamp(line) else {
        return ConsoleLine::Unrecognised;
    };
    // "<cname> kernel: <payload>"
    let Some((cname_str, rest)) = rest.split_once(' ') else {
        return ConsoleLine::Unrecognised;
    };
    let Ok(cname) = cname_str.parse::<Cname>() else {
        return ConsoleLine::Unrecognised;
    };
    let Some(node) = cname.node_id() else {
        return ConsoleLine::Unrecognised;
    };
    let Some(rest) = rest.strip_prefix("kernel: ") else {
        return ConsoleLine::Unrecognised;
    };
    let trimmed = rest.trim_start();
    if trimmed == "Call Trace:" {
        return ConsoleLine::CallTrace(node);
    }
    if let Some(frame) = trimmed.strip_prefix("[<") {
        // "[<ffffffff8100beef>] symbol+0x132/0x240"
        let module = frame
            .split_once(">] ")
            .map(|(_, sym_part)| sym_part.split('+').next().unwrap_or(""))
            .and_then(StackModule::from_symbol);
        return ConsoleLine::Frame(node, module);
    }
    ConsoleLine::Other(node, time, rest)
}

/// Handles a non-continuation console line: completes any pending report for
/// `node`, then either opens a new multi-line report or emits a single-line
/// event. Returns `true` if the line was recognised. Shared by the stateful
/// and chunked parsers.
fn console_other_line(
    pending: &mut HashMap<NodeId, PendingTrace>,
    node: NodeId,
    time: SimTime,
    rest: &str,
    out: &mut Vec<LogEvent>,
) -> bool {
    // Any non-trace line from this node completes the pending report first.
    if let Some(p) = pending.remove(&node) {
        out.push(complete_pending(node, p));
    }

    // Multi-line starters buffer instead of emitting.
    if let Some(cause) = OopsCause::from_first_line(rest) {
        pending.insert(
            node,
            PendingTrace {
                time,
                kind: PendKind::Oops(cause),
                modules: Vec::new(),
            },
        );
        return true;
    }
    if let Some(r) = rest.strip_prefix("INFO: task ") {
        // "INFO: task {exe}:{pid} blocked for more than 120 seconds."
        let Some((ident, _)) = r.split_once(" blocked") else {
            return false;
        };
        let Some((exe, pid)) = ident.rsplit_once(':') else {
            return false;
        };
        let (Some(task), Ok(pid)) = (AppKind::from_executable(exe), pid.parse::<u32>()) else {
            return false;
        };
        pending.insert(
            node,
            PendingTrace {
                time,
                kind: PendKind::Hung { task, pid },
                modules: Vec::new(),
            },
        );
        return true;
    }

    let Some(detail) = parse_console_single(rest) else {
        return false;
    };
    out.push(LogEvent {
        time,
        payload: Payload::Console { node, detail },
    });
    true
}

/// Stateful multi-stream log parser.
///
/// One parser instance may be fed lines from all four sources; only console
/// parsing is stateful. Lines must be fed in file order per source (the
/// natural order of a log file).
#[derive(Debug, Default)]
pub struct LogParser {
    pending: HashMap<NodeId, PendingTrace>,
    /// Lines successfully consumed (including trace continuation lines).
    pub parsed_lines: u64,
    /// Lines that matched no known format.
    pub skipped_lines: u64,
}

impl LogParser {
    /// Fresh parser.
    pub fn new() -> LogParser {
        LogParser::default()
    }

    /// Parses one line from `source`, appending zero or more completed
    /// events to `out`. Returns `true` if the line was recognised.
    pub fn parse_line(&mut self, source: LogSource, line: &str, out: &mut Vec<LogEvent>) -> bool {
        let ok = match source {
            LogSource::Console => self.parse_console(line, out),
            LogSource::Controller => parse_controller(line, out),
            LogSource::Erd => parse_erd(line, out),
            LogSource::Scheduler => parse_scheduler(line, out),
        };
        if ok {
            self.parsed_lines += 1;
        } else {
            self.skipped_lines += 1;
        }
        ok
    }

    /// Flushes any buffered multi-line reports (in timestamp order, ties
    /// broken by node id so the drain is deterministic — `pending` is a
    /// `HashMap`, whose iteration order would otherwise leak into the
    /// output when two nodes' reports share a timestamp).
    pub fn finish(&mut self, out: &mut Vec<LogEvent>) {
        drain_pending(&mut self.pending, out);
    }

    /// Parses an entire stream the way `LogParser::parse_stream` does and
    /// returns `(events, parsed_lines, skipped_lines)`.
    pub fn parse_stream<'a, I>(source: LogSource, lines: I) -> (Vec<LogEvent>, u64, u64)
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut p = LogParser::new();
        let mut out = Vec::new();
        for line in lines {
            p.parse_line(source, line, &mut out);
        }
        p.finish(&mut out);
        out.sort_by_key(|e| e.time);
        (out, p.parsed_lines, p.skipped_lines)
    }

    fn parse_console(&mut self, line: &str, out: &mut Vec<LogEvent>) -> bool {
        match classify_console(line) {
            ConsoleLine::Unrecognised => false,
            // Trace continuation lines extend the pending report.
            ConsoleLine::CallTrace(node) => self.pending.contains_key(&node),
            ConsoleLine::Frame(node, module) => match (self.pending.get_mut(&node), module) {
                (Some(p), Some(module)) => {
                    p.modules.push(module);
                    true
                }
                // Orphan frames and malformed/unknown symbols are skipped;
                // an open report stays open across a bad frame.
                _ => false,
            },
            ConsoleLine::Other(node, time, rest) => {
                console_other_line(&mut self.pending, node, time, rest, out)
            }
        }
    }
}

/// Drains `pending` into `out`, sorted by (time, node) so the completion
/// order of equal-time reports does not depend on `HashMap` iteration order.
fn drain_pending(pending: &mut HashMap<NodeId, PendingTrace>, out: &mut Vec<LogEvent>) {
    let mut drained: Vec<(NodeId, PendingTrace)> = pending.drain().collect();
    drained.sort_by_key(|(node, p)| (p.time, *node));
    for (node, p) in drained {
        out.push(complete_pending(node, p));
    }
}

fn complete_pending(node: NodeId, p: PendingTrace) -> LogEvent {
    let detail = match p.kind {
        PendKind::Oops(cause) => ConsoleDetail::KernelOops {
            cause,
            modules: p.modules,
        },
        PendKind::Hung { task, pid } => ConsoleDetail::HungTaskTimeout {
            task,
            pid,
            modules: p.modules,
        },
    };
    LogEvent {
        time: p.time,
        payload: Payload::Console { node, detail },
    }
}

/// Parses single-line console payloads (everything except oops/hung-task).
fn parse_console_single(rest: &str) -> Option<ConsoleDetail> {
    if let Some(r) = rest.strip_prefix("mce: [Hardware Error]: Machine Check Exception ") {
        let bank = field(r, "bank=")?.parse().ok()?;
        let kind = MceKind::from_token(field(r, "kind=")?)?;
        let corrected = match field(r, "status=")? {
            "corrected" => true,
            "uncorrected" => false,
            _ => return None,
        };
        return Some(ConsoleDetail::Mce {
            bank,
            kind,
            corrected,
        });
    }
    if let Some(r) = rest.strip_prefix("EDAC MC0: ") {
        let correctable = if r.starts_with("correctable") {
            true
        } else if r.starts_with("uncorrectable") {
            false
        } else {
            return None;
        };
        let dimm = r.rsplit(' ').next()?.parse().ok()?;
        return Some(ConsoleDetail::MemoryError { dimm, correctable });
    }
    if rest.contains("]: segfault at ") {
        // "{exe}[{pid}]: segfault at …"
        let (ident, _) = rest.split_once("]: segfault")?;
        let (exe, pid) = ident.split_once('[')?;
        return Some(ConsoleDetail::SegFault {
            app: AppKind::from_executable(exe)?,
            pid: pid.parse().ok()?,
        });
    }
    if let Some(r) = rest.strip_prefix("Out of memory: Kill process ") {
        // "{pid} ({exe}) score 912 or sacrifice child"
        let (pid, r) = r.split_once(' ')?;
        let exe = r.strip_prefix('(')?.split_once(')')?.0;
        return Some(ConsoleDetail::OomKill {
            victim: AppKind::from_executable(exe)?,
            pid: pid.parse().ok()?,
        });
    }
    if let Some(r) = rest.strip_prefix("Kernel panic - not syncing: ") {
        return Some(ConsoleDetail::KernelPanic {
            reason: PanicReason::from_message(r)?,
        });
    }
    if let Some(r) = rest.strip_prefix("LustreError: 11-0: fs0-OST0001: ") {
        return Some(ConsoleDetail::LustreError {
            kind: LustreErrorKind::from_token(r.trim())?,
        });
    }
    if let Some(r) = rest.strip_prefix("INFO: rcu_sched self-detected stall on CPU ") {
        return Some(ConsoleDetail::CpuStall {
            cpu: r.trim().parse().ok()?,
        });
    }
    if rest.contains(": page allocation failure: order:") {
        let (exe, r) = rest.split_once(": page allocation failure: order:")?;
        let order = r.split(',').next()?.parse().ok()?;
        return Some(ConsoleDetail::PageAllocFailure {
            app: AppKind::from_executable(exe)?,
            order,
        });
    }
    if let Some(r) = rest.strip_prefix("NVRM: Xid ") {
        // "{xid} on GPU {gpu}"
        let (xid, r) = r.split_once(' ')?;
        let gpu = r.strip_prefix("on GPU ")?.trim().parse().ok()?;
        return Some(ConsoleDetail::GpuError {
            gpu,
            xid: xid.parse().ok()?,
        });
    }
    if rest.starts_with("sd 0:0:0:0: [sda] Unhandled error code") {
        return Some(ConsoleDetail::DiskError);
    }
    if rest.starts_with("type:2; severity:80; class:3; subclass:D; operation: 2") {
        return Some(ConsoleDetail::BiosError);
    }
    if let Some(r) = rest.strip_prefix("NHC: warning test=") {
        return Some(ConsoleDetail::NhcWarning {
            test: NhcTest::from_token(r.trim())?,
        });
    }
    if rest.starts_with("EMERGENCY: node unexpectedly shut down") {
        return Some(ConsoleDetail::UnexpectedShutdown);
    }
    if rest.starts_with("reboot: System halted") {
        return Some(ConsoleDetail::GracefulShutdown);
    }
    None
}

fn parse_controller(line: &str, out: &mut Vec<LogEvent>) -> bool {
    let Some((time, rest)) = split_timestamp(line) else {
        return false;
    };
    let Some((cname_str, rest)) = rest.split_once(' ') else {
        return false;
    };
    let Ok(cname) = cname_str.parse::<Cname>() else {
        return false;
    };
    let scope = match cname.granularity() {
        2 => match cname.blade_id() {
            Some(b) => ControllerScope::Blade(b),
            None => return false,
        },
        0 => ControllerScope::Cabinet(cname.cabinet_id()),
        _ => return false,
    };
    let rest = match rest
        .strip_prefix("bc: ")
        .or_else(|| rest.strip_prefix("cc: "))
    {
        Some(r) => r,
        None => return false,
    };
    let Some(detail) = parse_controller_payload(rest) else {
        return false;
    };
    out.push(LogEvent {
        time,
        payload: Payload::Controller { scope, detail },
    });
    true
}

fn parse_controller_payload(rest: &str) -> Option<ControllerDetail> {
    if let Some(r) = rest.strip_prefix("ec_node_heartbeat_fault: node ") {
        let cname: Cname = r.split(' ').next()?.parse().ok()?;
        return Some(ControllerDetail::NodeHeartbeatFault {
            node: cname.node_id()?,
        });
    }
    if let Some(r) = rest.strip_prefix("ec_node_voltage_fault: node ") {
        let cname: Cname = r.split(' ').next()?.parse().ok()?;
        return Some(ControllerDetail::NodeVoltageFault {
            node: cname.node_id()?,
        });
    }
    if rest.starts_with("ec_bc_heartbeat_fault") {
        return Some(ControllerDetail::BcHeartbeatFault);
    }
    if rest.starts_with("ecb_fault") {
        return Some(ControllerDetail::EcbFault {
            channel: field(rest, "channel=")?.parse().ok()?,
        });
    }
    if rest.starts_with("get sensor reading failed") {
        return Some(ControllerDetail::SensorReadFailed {
            channel: field(rest, "channel=")?.parse().ok()?,
        });
    }
    if rest.starts_with("cabinet power fault") {
        return Some(ControllerDetail::CabinetPowerFault);
    }
    if rest.starts_with("cabinet micro controller fault") {
        return Some(ControllerDetail::MicroControllerFault);
    }
    if rest.starts_with("communication fault") {
        return Some(ControllerDetail::CommunicationFault);
    }
    if rest.starts_with("module health fault") {
        return Some(ControllerDetail::ModuleHealthFault);
    }
    if rest.starts_with("fan rpm fault") {
        return Some(ControllerDetail::RpmFault {
            fan: field(rest, "fan=")?.parse().ok()?,
        });
    }
    if rest.starts_with("L0_sysd_mce") {
        let cname: Cname = field(rest, "node=")?.parse().ok()?;
        return Some(ControllerDetail::L0SysdMce {
            node: cname.node_id()?,
        });
    }
    if let Some(r) = rest.strip_prefix("node ") {
        if r.contains("powered off by operator") {
            let cname: Cname = r.split(' ').next()?.parse().ok()?;
            return Some(ControllerDetail::NodePowerOff {
                node: cname.node_id()?,
            });
        }
    }
    None
}

fn parse_erd(line: &str, out: &mut Vec<LogEvent>) -> bool {
    let Some((time, rest)) = split_timestamp(line) else {
        return false;
    };
    let Some(rest) = rest.strip_prefix("erd: ") else {
        return false;
    };
    let Some((scope, detail)) = parse_erd_payload(rest) else {
        return false;
    };
    out.push(LogEvent {
        time,
        payload: Payload::Erd { scope, detail },
    });
    true
}

fn parse_erd_payload(rest: &str) -> Option<(ControllerScope, ErdDetail)> {
    let src: Cname = field(rest, "src=")?.parse().ok()?;
    let scope = match src.granularity() {
        0 => ControllerScope::Cabinet(src.cabinet_id()),
        2 => ControllerScope::Blade(src.blade_id()?),
        3 => ControllerScope::Blade(src.node_id()?.blade()),
        _ => return None,
    };
    let detail = if rest.starts_with("ec_sedc_warning ") {
        let sensor = SensorKind::from_mnemonic(field(rest, "sensor=")?)?;
        let channel = field(rest, "ch=")?.parse().ok()?;
        let reading: f64 = field(rest, "reading=")?.parse().ok()?;
        let deviation = if rest.ends_with("below minimum threshold") {
            Deviation::BelowMinimum
        } else if rest.ends_with("above maximum threshold") {
            Deviation::AboveMaximum
        } else if rest.ends_with("nominal") {
            Deviation::Nominal
        } else {
            return None;
        };
        ErdDetail::SedcWarning {
            sensor,
            channel,
            reading,
            deviation,
        }
    } else if rest.starts_with("ec_sedc_data ") {
        ErdDetail::SedcReading {
            sensor: SensorKind::from_mnemonic(field(rest, "sensor=")?)?,
            channel: field(rest, "ch=")?.parse().ok()?,
            reading: field(rest, "reading=")?.parse().ok()?,
        }
    } else if rest.starts_with("ec_hw_error ") {
        let node = src.node_id()?;
        let component = parse_component(field(rest, "component=")?)?;
        ErdDetail::HwError { node, component }
    } else if rest.starts_with("ec_heartbeat_stop ") {
        ErdDetail::HeartbeatStop
    } else if rest.starts_with("ec_l0_failed ") {
        ErdDetail::L0Failed
    } else if rest.starts_with("ec_link_error ") {
        let port = field(rest, "port=")?.parse().ok()?;
        let kind = parse_link_error(rest)?;
        ErdDetail::LinkError { port, kind }
    } else if rest.starts_with("ec_environment ") {
        ErdDetail::Environment {
            air_flow_reduced: rest.ends_with("air flow reduced"),
        }
    } else if rest.starts_with("ec_cabinet_sensor_check ") {
        ErdDetail::CabinetSensorCheck {
            ok: field(rest, "status=") == Some("ok"),
        }
    } else if rest.starts_with("ec_node_failed ") {
        ErdDetail::NodeFailed {
            node: src.node_id()?,
        }
    } else {
        return None;
    };
    Some((scope, detail))
}

fn parse_component(s: &str) -> Option<Component> {
    Some(match s {
        "CPU" => Component::Cpu,
        "DIMM" => Component::Dimm,
        "NIC" => Component::Nic,
        "DISK" => Component::Disk,
        "GPU" => Component::Gpu,
        "BB_SSD" => Component::BurstBufferSsd,
        _ => return None,
    })
}

fn parse_link_error(rest: &str) -> Option<LinkErrorKind> {
    if rest.ends_with("lane CRC error") {
        Some(LinkErrorKind::Crc)
    } else if rest.ends_with("lane degrade: width reduced") {
        Some(LinkErrorKind::LaneDegrade)
    } else if rest.ends_with("link inactive") {
        Some(LinkErrorKind::LinkDown)
    } else if rest.ends_with("failover completed") {
        Some(LinkErrorKind::Failover { succeeded: true })
    } else if rest.ends_with("failover FAILED") {
        Some(LinkErrorKind::Failover { succeeded: false })
    } else {
        None
    }
}

fn parse_scheduler(line: &str, out: &mut Vec<LogEvent>) -> bool {
    let Some((time, rest)) = split_timestamp(line) else {
        return false;
    };
    let rest = match rest
        .strip_prefix("slurmctld: ")
        .or_else(|| rest.strip_prefix("pbs_server: "))
    {
        Some(r) => r,
        None => return false,
    };
    let Some(detail) = parse_scheduler_payload(rest) else {
        return false;
    };
    out.push(LogEvent {
        time,
        payload: Payload::Scheduler { detail },
    });
    true
}

fn parse_scheduler_payload(rest: &str) -> Option<SchedulerDetail> {
    if let Some(r) = rest.strip_prefix("nhc: ") {
        return Some(SchedulerDetail::NhcResult {
            node: parse_nid(field(r, "node=")?)?,
            test: NhcTest::from_token(field(r, "test=")?)?,
            passed: field(r, "status=")? == "pass",
        });
    }
    if let Some(r) = rest.strip_prefix("epilogue: ") {
        return Some(SchedulerDetail::EpilogueCleanup {
            job: JobId(field(r, "job=")?.parse().ok()?),
            node: parse_nid(field(r, "node=")?)?,
        });
    }
    if let Some(r) = rest.strip_prefix("sched: ") {
        if r.contains("memory overallocation") {
            let req = field(r, "requested=")?.strip_suffix("MiB")?;
            let avail = field(r, "available=")?.strip_suffix("MiB")?;
            return Some(SchedulerDetail::MemOverallocation {
                job: JobId(field(r, "job=")?.parse().ok()?),
                node: parse_nid(field(r, "node=")?)?,
                requested_mib: req.parse().ok()?,
                available_mib: avail.parse().ok()?,
            });
        }
        return None;
    }
    if rest.starts_with("node=") && rest.contains("state=") {
        return Some(SchedulerDetail::NodeStateChange {
            node: parse_nid(field(rest, "node=")?)?,
            state: NodeState::from_token(field(rest, "state=")?)?,
        });
    }
    if rest.starts_with("job=") {
        let job = JobId(field(rest, "job=")?.parse().ok()?);
        if rest.contains(" end ") {
            return Some(SchedulerDetail::JobEnd {
                job,
                exit_code: field(rest, "exit_code=")?.parse().ok()?,
                reason: JobEndReason::from_token(field(rest, "reason=")?)?,
            });
        }
        if rest.ends_with(" start") {
            let mem = field(rest, "mem_per_node=")?.strip_suffix("MiB")?;
            return Some(SchedulerDetail::JobStart {
                job,
                apid: Apid(field(rest, "apid=")?.parse().ok()?),
                user: field(rest, "user=")?.parse().ok()?,
                app: AppKind::from_executable(field(rest, "app=")?)?,
                nodes: expand_nid_list(field(rest, "nodes=")?)?,
                mem_per_node_mib: mem.parse().ok()?,
            });
        }
    }
    None
}

/// Splits the leading 23-char timestamp plus one space from a line.
/// Public for stream consumers that track per-source clocks from raw lines.
pub fn split_timestamp(line: &str) -> Option<(SimTime, &str)> {
    // The boundary check matters on hostile bytes: lossily-sanitised
    // garbage can put a multi-byte U+FFFD across index 23, where a bare
    // `split_at` would panic mid-char.
    if line.len() < 25 || !line.is_char_boundary(23) {
        return None;
    }
    let (ts, rest) = line.split_at(23);
    let time = parse_sim_time(ts)?;
    Some((time, rest.strip_prefix(' ')?))
}

/// `SimTime::parse` as it was: slice each field, check it is all digits,
/// `str::parse::<u64>` it. The calendar step goes through the current
/// `SimTime::parse` on a normalised midnight timestamp of the same date —
/// the date arithmetic itself did not change.
fn parse_sim_time(s: &str) -> Option<SimTime> {
    let b = s.as_bytes();
    if b.len() != 23 || b[4] != b'-' || b[7] != b'-' || b[10] != b'T' {
        return None;
    }
    if b[13] != b':' || b[16] != b':' || b[19] != b'.' {
        return None;
    }
    let num = |range: std::ops::Range<usize>| -> Option<u64> {
        let slice = &s[range];
        if slice.bytes().all(|c| c.is_ascii_digit()) {
            slice.parse().ok()
        } else {
            None
        }
    };
    let (year, month, day) = (num(0..4)?, num(5..7)?, num(8..10)?);
    if !(1..=12).contains(&month) || !(1..=31).contains(&day) {
        return None;
    }
    let midnight = SimTime::parse(&format!("{year:04}-{month:02}-{day:02}T00:00:00.000"))?;
    let (hour, minute, second, milli) = (num(11..13)?, num(14..16)?, num(17..19)?, num(20..23)?);
    if hour > 23 || minute > 59 || second > 59 {
        return None;
    }
    Some(SimTime(
        midnight.0 + hour * 3_600_000 + minute * 60_000 + second * 1_000 + milli,
    ))
}

/// Extracts the whitespace-delimited token following `key` (e.g.
/// `field("a=1 b=2", "b=")` → `Some("2")`).
fn field<'a>(haystack: &'a str, key: &str) -> Option<&'a str> {
    let start = haystack.find(key)? + key.len();
    let rest = &haystack[start..];
    let end = rest.find(' ').unwrap_or(rest.len());
    Some(&rest[..end])
}

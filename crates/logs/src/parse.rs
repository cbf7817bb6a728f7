//! Parsing text log lines back into structured [`LogEvent`]s.
//!
//! This is the measurement half of the substitution: the diagnosis pipeline
//! never receives simulator state, only the rendered text, which it parses
//! with the stateful [`LogParser`] here — exactly the position the paper's
//! authors were in with real p0-directory logs.
//!
//! Console streams interleave lines from thousands of nodes and contain
//! multi-line `Call Trace:` sections, so the parser keeps a per-node pending
//! buffer: a kernel oops (or hung-task report) is held open while its trace
//! frames accumulate and is emitted when the next non-trace line from the
//! same node arrives (or at [`LogParser::finish`]).

use std::collections::HashMap;

use hpc_platform::components::Component;
use hpc_platform::id::Cname;
use hpc_platform::interconnect::LinkErrorKind;
use hpc_platform::sensors::{Deviation, SensorKind};
use hpc_platform::NodeId;

use crate::event::{
    parse_nid, Apid, AppKind, ConsoleDetail, ControllerDetail, ControllerScope, ErdDetail,
    JobEndReason, JobId, LogEvent, LogSource, LustreErrorKind, MceKind, NhcTest, NodeState,
    OopsCause, PanicReason, Payload, SchedulerDetail, StackModule,
};
use crate::render::expand_nid_list;
use crate::time::SimTime;

/// What a pending multi-line console report will become.
#[derive(Debug, Clone)]
pub(crate) enum PendKind {
    Oops(OopsCause),
    Hung { task: AppKind, pid: u32 },
}

#[derive(Debug, Clone)]
pub(crate) struct PendingTrace {
    pub(crate) time: SimTime,
    pub(crate) kind: PendKind,
    pub(crate) modules: Vec<StackModule>,
}

/// Structural shape of one console line, independent of parser state.
///
/// This is the classification [`LogParser`] switches on; the chunked parser
/// ([`crate::chunk`]) reuses it so both paths agree byte-for-byte on what a
/// line *is* — only what to *do* with continuation lines depends on whether
/// the preceding context is known.
pub(crate) enum ConsoleLine<'a> {
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
pub(crate) fn classify_console(line: &str) -> ConsoleLine<'_> {
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
pub(crate) fn console_other_line(
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

    /// Earliest timestamp among still-open multi-line reports, if any.
    ///
    /// An open oops/hung-task report completes *late* — when the next
    /// non-trace line from its node arrives — but carries this earlier
    /// timestamp. A live merger must therefore hold its release point at or
    /// below the earliest pending time, or the completion would appear to
    /// travel back past the watermark.
    pub fn earliest_pending_time(&self) -> Option<SimTime> {
        self.pending.values().map(|p| p.time).min()
    }

    /// Number of open (buffered) multi-line reports.
    pub fn pending_reports(&self) -> usize {
        self.pending.len()
    }

    /// Convenience: parses an entire in-memory stream and returns the events
    /// plus the number of unrecognised lines.
    ///
    /// The result is sorted by timestamp: buffered multi-line reports (an
    /// oops whose trace frames interleave with other nodes' lines) complete
    /// *after* later single-line events, so raw emission order is not
    /// chronological even though the input file is.
    pub fn parse_stream<'a, I>(source: LogSource, lines: I) -> (Vec<LogEvent>, u64)
    where
        I: IntoIterator<Item = &'a str>,
    {
        let lines = lines.into_iter();
        let mut p = LogParser::new();
        // Nearly every line of a healthy stream is one event: sizing for
        // that up front saves regrowing (and re-copying) a multi-MB vector.
        let mut out = Vec::with_capacity(lines.size_hint().0);
        for line in lines {
            p.parse_line(source, line, &mut out);
        }
        p.finish(&mut out);
        out.sort_by_key(|e| e.time);
        (out, p.skipped_lines)
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
pub(crate) fn drain_pending(pending: &mut HashMap<NodeId, PendingTrace>, out: &mut Vec<LogEvent>) {
    let mut drained: Vec<(NodeId, PendingTrace)> = pending.drain().collect();
    drained.sort_by_key(|(node, p)| (p.time, *node));
    for (node, p) in drained {
        out.push(complete_pending(node, p));
    }
}

pub(crate) fn complete_pending(node: NodeId, p: PendingTrace) -> LogEvent {
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
        let [bank, kind, status] = fields(r, ["bank=", "kind=", "status="]);
        let bank = bank?.parse().ok()?;
        let kind = MceKind::from_token(kind?)?;
        let corrected = match status? {
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
    let [src, sensor, ch, reading, component, port, status] = fields(
        rest,
        [
            "src=",
            "sensor=",
            "ch=",
            "reading=",
            "component=",
            "port=",
            "status=",
        ],
    );
    let src: Cname = src?.parse().ok()?;
    let scope = match src.granularity() {
        0 => ControllerScope::Cabinet(src.cabinet_id()),
        2 => ControllerScope::Blade(src.blade_id()?),
        3 => ControllerScope::Blade(src.node_id()?.blade()),
        _ => return None,
    };
    let detail = if rest.starts_with("ec_sedc_warning ") {
        let sensor = SensorKind::from_mnemonic(sensor?)?;
        let channel = ch?.parse().ok()?;
        let reading: f64 = reading?.parse().ok()?;
        let deviation = parse_deviation(rest)?;
        ErdDetail::SedcWarning {
            sensor,
            channel,
            reading,
            deviation,
        }
    } else if rest.starts_with("ec_sedc_data ") {
        ErdDetail::SedcReading {
            sensor: SensorKind::from_mnemonic(sensor?)?,
            channel: ch?.parse().ok()?,
            reading: reading?.parse().ok()?,
        }
    } else if rest.starts_with("ec_hw_error ") {
        let node = src.node_id()?;
        let component = parse_component(component?)?;
        ErdDetail::HwError { node, component }
    } else if rest.starts_with("ec_heartbeat_stop ") {
        ErdDetail::HeartbeatStop
    } else if rest.starts_with("ec_l0_failed ") {
        ErdDetail::L0Failed
    } else if rest.starts_with("ec_link_error ") {
        let port = port?.parse().ok()?;
        let kind = parse_link_error(rest)?;
        ErdDetail::LinkError { port, kind }
    } else if rest.starts_with("ec_environment ") {
        ErdDetail::Environment {
            air_flow_reduced: rest.ends_with("air flow reduced"),
        }
    } else if rest.starts_with("ec_cabinet_sensor_check ") {
        ErdDetail::CabinetSensorCheck {
            ok: status == Some("ok"),
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

pub(crate) fn parse_component(s: &str) -> Option<Component> {
    Component::ALL.into_iter().find(|c| c.mnemonic() == s)
}

/// The deviation a SEDC warning line ends with.
pub(crate) fn parse_deviation(rest: &str) -> Option<Deviation> {
    Deviation::ALL
        .into_iter()
        .find(|d| rest.ends_with(d.as_str()))
}

/// The link error class a link-error line ends with.
pub(crate) fn parse_link_error(rest: &str) -> Option<LinkErrorKind> {
    LinkErrorKind::ALL
        .into_iter()
        .find(|k| rest.ends_with(k.as_log_fragment()))
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
        let [node, test, status] = fields(r, ["node=", "test=", "status="]);
        return Some(SchedulerDetail::NhcResult {
            node: parse_nid(node?)?,
            test: NhcTest::from_token(test?)?,
            passed: status? == "pass",
        });
    }
    if let Some(r) = rest.strip_prefix("epilogue: ") {
        let [job, node] = fields(r, ["job=", "node="]);
        return Some(SchedulerDetail::EpilogueCleanup {
            job: JobId(job?.parse().ok()?),
            node: parse_nid(node?)?,
        });
    }
    if let Some(r) = rest.strip_prefix("sched: ") {
        if r.contains("memory overallocation") {
            let [requested, available, job, node] =
                fields(r, ["requested=", "available=", "job=", "node="]);
            let req = requested?.strip_suffix("MiB")?;
            let avail = available?.strip_suffix("MiB")?;
            return Some(SchedulerDetail::MemOverallocation {
                job: JobId(job?.parse().ok()?),
                node: parse_nid(node?)?,
                requested_mib: req.parse().ok()?,
                available_mib: avail.parse().ok()?,
            });
        }
        return None;
    }
    if rest.starts_with("node=") {
        let [node, state] = fields(rest, ["node=", "state="]);
        return Some(SchedulerDetail::NodeStateChange {
            node: parse_nid(node?)?,
            state: NodeState::from_token(state?)?,
        });
    }
    if rest.starts_with("job=") {
        let [job, exit_code, reason, mem, apid, user, app, nodes] = fields(
            rest,
            [
                "job=",
                "exit_code=",
                "reason=",
                "mem_per_node=",
                "apid=",
                "user=",
                "app=",
                "nodes=",
            ],
        );
        let job = JobId(job?.parse().ok()?);
        if rest.contains(" end ") {
            return Some(SchedulerDetail::JobEnd {
                job,
                exit_code: exit_code?.parse().ok()?,
                reason: JobEndReason::from_token(reason?)?,
            });
        }
        if rest.ends_with(" start") {
            let mem = mem?.strip_suffix("MiB")?;
            return Some(SchedulerDetail::JobStart {
                job,
                apid: Apid(apid?.parse().ok()?),
                user: user?.parse().ok()?,
                app: AppKind::from_executable(app?)?,
                nodes: expand_nid_list(nodes?)?,
                mem_per_node_mib: mem.parse().ok()?,
            });
        }
    }
    None
}

/// Guesses which of the four streams a log line belongs to from its
/// envelope, for consumers fed a single pre-merged stream (`--stdin`) with
/// no per-file provenance. Returns `None` for lines without a recognisable
/// envelope — callers should count those as skipped.
pub fn guess_source(line: &str) -> Option<LogSource> {
    let (_, rest) = split_timestamp(line)?;
    if rest.starts_with("erd: ") {
        return Some(LogSource::Erd);
    }
    if rest.starts_with("slurmctld: ") || rest.starts_with("pbs_server: ") {
        return Some(LogSource::Scheduler);
    }
    // "<cname> kernel: …" / "<cname> bc: …" / "<cname> cc: …"
    let (_, tail) = rest.split_once(' ')?;
    if tail.starts_with("kernel: ") {
        Some(LogSource::Console)
    } else if tail.starts_with("bc: ") || tail.starts_with("cc: ") {
        Some(LogSource::Controller)
    } else {
        None
    }
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
    let time = SimTime::parse(ts)?;
    Some((time, rest.strip_prefix(' ')?))
}

/// One forward pass over `haystack` that extracts, for every `key=` in
/// `keys`, the space-delimited token following the key's **first**
/// occurrence (e.g. `fields("a=1 b=2", ["b=", "z="])` → `[Some("2"), None]`).
///
/// The keys are matched as substrings, not as whole tokens — `ch=` is found
/// inside `xch=3` — which is what hostile lines were always judged by; the
/// cursor only exploits that every key ends in its single `=`, so a key can
/// only match where the text up to an `=` ends with it.
fn fields<'a, const N: usize>(haystack: &'a str, keys: [&str; N]) -> [Option<&'a str>; N] {
    debug_assert!(keys
        .iter()
        .all(|k| k.len() >= 2 && k.ends_with('=') && !k[..k.len() - 1].contains('=')));
    let bytes = haystack.as_bytes();
    let mut found = [None; N];
    for (eq, _) in bytes.iter().enumerate().filter(|&(_, &b)| b == b'=') {
        let head = &bytes[..=eq];
        for (slot, key) in found.iter_mut().zip(keys) {
            let key = key.as_bytes();
            // The byte before the `=` rules out most keys without a memcmp.
            if slot.is_none()
                && eq > 0
                && bytes[eq - 1] == key[key.len() - 2]
                && head.ends_with(key)
            {
                let value = &haystack[eq + 1..];
                let end = value.bytes().position(|b| b == b' ').unwrap_or(value.len());
                *slot = Some(&value[..end]);
            }
        }
    }
    found
}

/// [`fields`] for a single key.
fn field<'a>(haystack: &'a str, key: &str) -> Option<&'a str> {
    let [value] = fields(haystack, [key]);
    value
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ConsoleDetail, LogEvent, Payload};
    use crate::render::render;
    use hpc_platform::system::SchedulerKind;
    use hpc_platform::{BladeId, CabinetId};

    fn roundtrip(event: LogEvent) {
        let source = event.source();
        let lines = render(&event, SchedulerKind::Slurm);
        let mut parser = LogParser::new();
        let mut out = Vec::new();
        for l in &lines {
            assert!(
                parser.parse_line(source, l, &mut out),
                "line not recognised: {l}"
            );
        }
        parser.finish(&mut out);
        assert_eq!(out, vec![event.clone()], "round-trip of {event:?}");
    }

    #[test]
    fn split_timestamp_survives_multibyte_chars_at_the_boundary() {
        // Lossily-sanitised garbage can place a 3-byte U+FFFD across byte
        // 23 — exactly where the timestamp split lands. Regression: this
        // used to panic (`split_at` mid-char) instead of returning None.
        let junk = format!("{}\u{FFFD} trailing junk", "a".repeat(22));
        assert!(
            junk.len() >= 25 && !junk.is_char_boundary(23),
            "fixture must straddle byte 23"
        );
        assert_eq!(split_timestamp(&junk), None);
        let mut parser = LogParser::new();
        let mut out = Vec::new();
        for source in crate::event::LogSource::ALL {
            assert!(!parser.parse_line(source, &junk, &mut out));
        }
        assert!(out.is_empty());
    }

    #[test]
    fn console_single_line_round_trips() {
        use crate::event::*;
        let t = SimTime::from_millis(86_400_123);
        let details = vec![
            ConsoleDetail::Mce {
                bank: 5,
                kind: MceKind::Cache,
                corrected: true,
            },
            ConsoleDetail::MemoryError {
                dimm: 3,
                correctable: false,
            },
            ConsoleDetail::SegFault {
                app: AppKind::Python,
                pid: 4242,
            },
            ConsoleDetail::OomKill {
                victim: AppKind::Matlab,
                pid: 999,
            },
            ConsoleDetail::KernelPanic {
                reason: PanicReason::LustreBug,
            },
            ConsoleDetail::LustreError {
                kind: LustreErrorKind::PageFaultLock,
            },
            ConsoleDetail::CpuStall { cpu: 17 },
            ConsoleDetail::PageAllocFailure {
                app: AppKind::Genomics,
                order: 4,
            },
            ConsoleDetail::GpuError { gpu: 1, xid: 79 },
            ConsoleDetail::DiskError,
            ConsoleDetail::BiosError,
            ConsoleDetail::NhcWarning {
                test: NhcTest::AppExit,
            },
            ConsoleDetail::UnexpectedShutdown,
            ConsoleDetail::GracefulShutdown,
        ];
        for d in details {
            roundtrip(LogEvent {
                time: t,
                payload: Payload::Console {
                    node: NodeId(193),
                    detail: d,
                },
            });
        }
    }

    #[test]
    fn oops_with_trace_round_trips() {
        use crate::event::*;
        roundtrip(LogEvent {
            time: SimTime::from_millis(5000),
            payload: Payload::Console {
                node: NodeId(7),
                detail: ConsoleDetail::KernelOops {
                    cause: OopsCause::InvalidOpcode,
                    modules: vec![
                        StackModule::DvsIpcMsg,
                        StackModule::XpmemFault,
                        StackModule::Generic,
                    ],
                },
            },
        });
    }

    #[test]
    fn hung_task_with_trace_round_trips() {
        use crate::event::*;
        roundtrip(LogEvent {
            time: SimTime::from_millis(777),
            payload: Payload::Console {
                node: NodeId(40),
                detail: ConsoleDetail::HungTaskTimeout {
                    task: AppKind::Genomics,
                    pid: 31337,
                    modules: vec![StackModule::IoSchedule, StackModule::RwsemDownFailed],
                },
            },
        });
    }

    #[test]
    fn interleaved_traces_from_two_nodes() {
        use crate::event::*;
        let a = LogEvent {
            time: SimTime::from_millis(1000),
            payload: Payload::Console {
                node: NodeId(0),
                detail: ConsoleDetail::KernelOops {
                    cause: OopsCause::PagingRequest,
                    modules: vec![StackModule::LdlmBl],
                },
            },
        };
        let b = LogEvent {
            time: SimTime::from_millis(1001),
            payload: Payload::Console {
                node: NodeId(1),
                detail: ConsoleDetail::KernelOops {
                    cause: OopsCause::NullDeref,
                    modules: vec![StackModule::MceLog],
                },
            },
        };
        let la = render(&a, SchedulerKind::Slurm);
        let lb = render(&b, SchedulerKind::Slurm);
        // Interleave: a0 b0 a1 b1 a2 b2
        let mut parser = LogParser::new();
        let mut out = Vec::new();
        for i in 0..3 {
            parser.parse_line(LogSource::Console, &la[i], &mut out);
            parser.parse_line(LogSource::Console, &lb[i], &mut out);
        }
        parser.finish(&mut out);
        assert_eq!(out.len(), 2);
        assert!(out.contains(&a));
        assert!(out.contains(&b));
    }

    #[test]
    fn controller_round_trips() {
        use crate::event::*;
        let blade_scope = ControllerScope::Blade(BladeId(12));
        let cab_scope = ControllerScope::Cabinet(CabinetId(1));
        let cases = vec![
            (
                blade_scope,
                ControllerDetail::NodeHeartbeatFault { node: NodeId(49) },
            ),
            (
                blade_scope,
                ControllerDetail::NodeVoltageFault { node: NodeId(50) },
            ),
            (blade_scope, ControllerDetail::BcHeartbeatFault),
            (blade_scope, ControllerDetail::EcbFault { channel: 2 }),
            (
                blade_scope,
                ControllerDetail::SensorReadFailed { channel: 7 },
            ),
            (cab_scope, ControllerDetail::CabinetPowerFault),
            (cab_scope, ControllerDetail::MicroControllerFault),
            (cab_scope, ControllerDetail::CommunicationFault),
            (blade_scope, ControllerDetail::ModuleHealthFault),
            (cab_scope, ControllerDetail::RpmFault { fan: 1 }),
            (
                blade_scope,
                ControllerDetail::L0SysdMce { node: NodeId(48) },
            ),
            (
                blade_scope,
                ControllerDetail::NodePowerOff { node: NodeId(51) },
            ),
        ];
        for (scope, detail) in cases {
            roundtrip(LogEvent {
                time: SimTime::from_millis(42),
                payload: Payload::Controller { scope, detail },
            });
        }
    }

    #[test]
    fn erd_round_trips() {
        use crate::event::*;
        use hpc_platform::sensors::{Deviation, SensorKind};
        let cases = vec![
            (
                ControllerScope::Cabinet(CabinetId(0)),
                ErdDetail::SedcWarning {
                    sensor: SensorKind::Voltage,
                    channel: 5,
                    reading: 11.125,
                    deviation: Deviation::BelowMinimum,
                },
            ),
            (
                ControllerScope::Blade(NodeId(100).blade()),
                ErdDetail::HwError {
                    node: NodeId(100),
                    component: Component::Dimm,
                },
            ),
            (
                ControllerScope::Blade(BladeId(6)),
                ErdDetail::SedcReading {
                    sensor: SensorKind::Temperature,
                    channel: 2,
                    reading: 39.75,
                },
            ),
            (ControllerScope::Blade(BladeId(3)), ErdDetail::HeartbeatStop),
            (ControllerScope::Blade(BladeId(3)), ErdDetail::L0Failed),
            (
                ControllerScope::Blade(BladeId(3)),
                ErdDetail::LinkError {
                    port: 4,
                    kind: LinkErrorKind::Failover { succeeded: false },
                },
            ),
            (
                ControllerScope::Cabinet(CabinetId(2)),
                ErdDetail::Environment {
                    air_flow_reduced: true,
                },
            ),
            (
                ControllerScope::Cabinet(CabinetId(2)),
                ErdDetail::CabinetSensorCheck { ok: false },
            ),
            (
                ControllerScope::Blade(NodeId(9).blade()),
                ErdDetail::NodeFailed { node: NodeId(9) },
            ),
        ];
        for (scope, detail) in cases {
            roundtrip(LogEvent {
                time: SimTime::from_millis(123_456),
                payload: Payload::Erd { scope, detail },
            });
        }
    }

    #[test]
    fn scheduler_round_trips() {
        use crate::event::*;
        let cases = vec![
            SchedulerDetail::JobStart {
                job: JobId(31),
                apid: Apid(9001),
                user: 1017,
                app: AppKind::Climate,
                nodes: vec![NodeId(3), NodeId(4), NodeId(5), NodeId(17)],
                mem_per_node_mib: 65536,
            },
            SchedulerDetail::JobEnd {
                job: JobId(31),
                exit_code: -11,
                reason: JobEndReason::NodeFail,
            },
            SchedulerDetail::NhcResult {
                node: NodeId(12),
                test: NhcTest::AppExit,
                passed: false,
            },
            SchedulerDetail::NodeStateChange {
                node: NodeId(12),
                state: NodeState::AdminDown,
            },
            SchedulerDetail::EpilogueCleanup {
                job: JobId(31),
                node: NodeId(4),
            },
            SchedulerDetail::MemOverallocation {
                job: JobId(31),
                node: NodeId(4),
                requested_mib: 131072,
                available_mib: 65536,
            },
        ];
        for detail in cases {
            roundtrip(LogEvent {
                time: SimTime::from_millis(987_654),
                payload: Payload::Scheduler { detail },
            });
        }
    }

    #[test]
    fn unrecognised_lines_are_counted_not_fatal() {
        let mut parser = LogParser::new();
        let mut out = Vec::new();
        assert!(!parser.parse_line(LogSource::Console, "not a log line", &mut out));
        assert!(!parser.parse_line(
            LogSource::Console,
            "2016-01-01T00:00:00.000 c0-0c0s0n0 kernel: some unknown chatter",
            &mut out
        ));
        assert!(!parser.parse_line(
            LogSource::Erd,
            "2016-01-01T00:00:00.000 erd: ec_bogus src=c0-0",
            &mut out
        ));
        assert_eq!(parser.skipped_lines, 3);
        assert!(out.is_empty());
    }

    #[test]
    fn orphan_trace_frames_are_skipped() {
        let mut parser = LogParser::new();
        let mut out = Vec::new();
        // A frame with no preceding oops must not panic or emit.
        let ok = parser.parse_line(
            LogSource::Console,
            "2016-01-01T00:00:00.000 c0-0c0s0n0 kernel:  [<ffffffff8100beef>] mce_log+0x132/0x240",
            &mut out,
        );
        assert!(!ok);
        assert!(out.is_empty());
    }

    #[test]
    fn parse_stream_convenience() {
        let ev = LogEvent {
            time: SimTime::from_millis(0),
            payload: Payload::Console {
                node: NodeId(2),
                detail: ConsoleDetail::DiskError,
            },
        };
        let lines = render(&ev, SchedulerKind::Slurm);
        let refs: Vec<&str> = lines.iter().map(|s| s.as_str()).collect();
        let (events, skipped) = LogParser::parse_stream(LogSource::Console, refs);
        assert_eq!(events, vec![ev]);
        assert_eq!(skipped, 0);
    }

    #[test]
    fn guess_source_recognises_all_stream_envelopes() {
        use crate::event::*;
        let events = vec![
            LogEvent {
                time: SimTime::from_millis(1),
                payload: Payload::Console {
                    node: NodeId(3),
                    detail: ConsoleDetail::DiskError,
                },
            },
            LogEvent {
                time: SimTime::from_millis(2),
                payload: Payload::Controller {
                    scope: ControllerScope::Blade(BladeId(1)),
                    detail: ControllerDetail::BcHeartbeatFault,
                },
            },
            LogEvent {
                time: SimTime::from_millis(3),
                payload: Payload::Controller {
                    scope: ControllerScope::Cabinet(CabinetId(0)),
                    detail: ControllerDetail::CabinetPowerFault,
                },
            },
            LogEvent {
                time: SimTime::from_millis(4),
                payload: Payload::Erd {
                    scope: ControllerScope::Blade(BladeId(2)),
                    detail: ErdDetail::L0Failed,
                },
            },
            LogEvent {
                time: SimTime::from_millis(5),
                payload: Payload::Scheduler {
                    detail: SchedulerDetail::NodeStateChange {
                        node: NodeId(9),
                        state: NodeState::Down,
                    },
                },
            },
        ];
        for scheduler in [SchedulerKind::Slurm, SchedulerKind::Torque] {
            for e in &events {
                for line in render(e, scheduler) {
                    assert_eq!(
                        guess_source(&line),
                        Some(e.source()),
                        "line {line:?} of {e:?}"
                    );
                }
            }
        }
        // Multi-line trace continuations carry the console envelope too.
        let oops = LogEvent {
            time: SimTime::from_millis(9),
            payload: Payload::Console {
                node: NodeId(7),
                detail: ConsoleDetail::KernelOops {
                    cause: OopsCause::NullDeref,
                    modules: vec![StackModule::MceLog],
                },
            },
        };
        let lines = render(&oops, SchedulerKind::Slurm);
        assert!(lines.len() > 1);
        for line in &lines {
            assert_eq!(guess_source(line), Some(LogSource::Console));
        }
        assert_eq!(guess_source("not a log line"), None);
        assert_eq!(
            guess_source("2016-01-01T00:00:00.000 mystery chatter"),
            None
        );
    }

    #[test]
    fn earliest_pending_time_tracks_open_reports() {
        use crate::event::*;
        let mut parser = LogParser::new();
        let mut out = Vec::new();
        assert_eq!(parser.earliest_pending_time(), None);
        assert_eq!(parser.pending_reports(), 0);
        let a = LogEvent {
            time: SimTime::from_millis(2_000),
            payload: Payload::Console {
                node: NodeId(0),
                detail: ConsoleDetail::KernelOops {
                    cause: OopsCause::PagingRequest,
                    modules: vec![StackModule::LdlmBl],
                },
            },
        };
        let b = LogEvent {
            time: SimTime::from_millis(3_000),
            payload: Payload::Console {
                node: NodeId(1),
                detail: ConsoleDetail::KernelOops {
                    cause: OopsCause::NullDeref,
                    modules: vec![StackModule::MceLog],
                },
            },
        };
        for line in render(&a, SchedulerKind::Slurm) {
            parser.parse_line(LogSource::Console, &line, &mut out);
        }
        for line in render(&b, SchedulerKind::Slurm) {
            parser.parse_line(LogSource::Console, &line, &mut out);
        }
        // Both reports are still open; the earliest pending time is a's.
        assert_eq!(parser.pending_reports(), 2);
        assert_eq!(
            parser.earliest_pending_time(),
            Some(SimTime::from_millis(2_000))
        );
        parser.finish(&mut out);
        assert_eq!(parser.earliest_pending_time(), None);
        assert_eq!(out, vec![a, b]);
    }

    #[test]
    fn field_extractor() {
        assert_eq!(field("a=1 b=2 c=3", "b="), Some("2"));
        assert_eq!(field("a=1 b=2", "z="), None);
        assert_eq!(field("tail=last", "tail="), Some("last"));
        assert_eq!(
            fields("a=1 b=2", ["b=", "z=", "a="]),
            [Some("2"), None, Some("1")]
        );
        // First occurrence wins, and keys match as substrings: inside a
        // longer key, and inside another key's value.
        assert_eq!(field("ch=1 ch=2", "ch="), Some("1"));
        assert_eq!(field("xch=3 ch=4", "ch="), Some("3"));
        assert_eq!(
            fields("sensor=ch=5 ch=6", ["sensor=", "ch="]),
            [Some("ch=5"), Some("5")]
        );
        assert_eq!(field("ch= x", "ch="), Some(""));
        assert_eq!(field("=", "ch="), None);
    }
}

//! Binary columnar codec for segment files.
//!
//! Segments use a small hand-written codec with no serialization
//! framework behind it: LEB128 varints for integers, zigzag for the one signed field
//! (`JobEnd.exit_code`), IEEE-754 bit patterns for sensor readings, and
//! single-byte ordinals for the closed vocabulary enums. A variant's
//! ordinal is its position in its vocabulary's `ALL` list (e.g.
//! [`PanicReason::ALL`]), so those lists are append-only: reordering one
//! would change what every stored ordinal means. Within one
//! segment every event shares an [`EventClass`], so payloads are encoded
//! *tag-free* — the class determines the variant, and only its fields are
//! written. Node references are interned through a per-segment dictionary
//! (see [`encode_payload`]'s `node` mapper), which turns the repeated
//! 4-byte node ids of a busy blade into 1-byte dictionary indexes.
//!
//! Decoding is total-failure-safe: every read is bounds-checked and every
//! ordinal validated, returning `Err(String)` (never panicking) so a
//! truncated or bit-flipped segment surfaces as a clean open error.

use hpc_logs::event::{
    Apid, AppKind, ConsoleDetail, ControllerDetail, ControllerScope, ErdDetail, JobEndReason,
    JobId, LustreErrorKind, MceKind, NhcTest, NodeState, OopsCause, PanicReason, Payload,
    SchedulerDetail, StackModule,
};
use hpc_logs::time::SimTime;
use hpc_platform::components::Component;
use hpc_platform::interconnect::LinkErrorKind;
use hpc_platform::sensors::{Deviation, SensorKind};
use hpc_platform::{BladeId, CabinetId, NodeId};

use crate::detection::{DetectedFailure, TerminalKind};
use crate::store::EventClass;
use crate::swo::SwoWindow;

// --- primitive writers --------------------------------------------------

/// Where the writers put bytes: a segment image (`Vec<u8>`) or [`Discard`].
pub trait Sink {
    fn push(&mut self, byte: u8);
    fn extend_from_slice(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    fn push(&mut self, byte: u8) {
        Vec::push(self, byte);
    }

    fn extend_from_slice(&mut self, bytes: &[u8]) {
        Vec::extend_from_slice(self, bytes);
    }
}

/// A sink that keeps nothing: [`encode_payload`] into it is a walk over a
/// payload's node references that writes no bytes.
pub struct Discard;

impl Sink for Discard {
    fn push(&mut self, _: u8) {}

    fn extend_from_slice(&mut self, _: &[u8]) {}
}

/// Appends a LEB128 varint.
pub fn put_varint(out: &mut impl Sink, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends a zigzag-encoded signed varint.
fn put_zigzag(out: &mut impl Sink, v: i64) {
    put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

fn put_f64(out: &mut impl Sink, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_bool(out: &mut impl Sink, v: bool) {
    out.push(v as u8);
}

// --- checked reader -----------------------------------------------------

/// A bounds-checked cursor over one segment body. Every accessor returns
/// `Err` instead of panicking on truncation or malformed values.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Cursor over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Next raw byte.
    fn u8(&mut self) -> Result<u8, String> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| format!("truncated at byte {}", self.pos))?;
        self.pos += 1;
        Ok(b)
    }

    /// Next LEB128 varint (at most 10 bytes). Values below 128 — the vast
    /// majority of dictionary indexes, deltas and small counts — take the
    /// single-byte fast path.
    pub fn varint(&mut self) -> Result<u64, String> {
        if let Some(&b) = self.buf.get(self.pos) {
            if b < 0x80 {
                self.pos += 1;
                return Ok(b as u64);
            }
        }
        self.varint_multi()
    }

    fn varint_multi(&mut self) -> Result<u64, String> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(format!("varint overlong at byte {}", self.pos))
    }

    /// Next zigzag-encoded signed varint.
    fn zigzag(&mut self) -> Result<i64, String> {
        let v = self.varint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    fn f64(&mut self) -> Result<f64, String> {
        let mut bytes = [0u8; 8];
        for b in &mut bytes {
            *b = self.u8()?;
        }
        Ok(f64::from_bits(u64::from_le_bytes(bytes)))
    }

    fn bool(&mut self) -> Result<bool, String> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(format!("invalid bool byte {b}")),
        }
    }
}

// --- enum ordinals ------------------------------------------------------

/// Appends `v`'s ordinal: its position in `all`, its vocabulary's `ALL`
/// list. Ordinals are part of the on-disk format, so each `ALL` is
/// append-only; `codec::tests::ordinals_match_the_on_disk_reference` pins
/// them.
fn put_ordinal<T: Copy + PartialEq>(out: &mut impl Sink, all: &[T], v: T) {
    let idx = all
        .iter()
        .position(|x| *x == v)
        .expect("`ALL` lists every variant");
    out.push(idx as u8);
}

/// Reads an ordinal written by [`put_ordinal`] over the same `all`.
fn get_ordinal<T: Copy>(dec: &mut Dec<'_>, all: &[T]) -> Result<T, String> {
    let b = dec.u8()?;
    all.get(b as usize).copied().ok_or_else(|| {
        let name = std::any::type_name::<T>().rsplit("::").next().unwrap_or("");
        format!("invalid {name} ordinal {b}")
    })
}

fn put_scope(out: &mut impl Sink, scope: ControllerScope) {
    match scope {
        ControllerScope::Blade(b) => {
            out.push(0);
            put_varint(out, b.0 as u64);
        }
        ControllerScope::Cabinet(c) => {
            out.push(1);
            put_varint(out, c.0 as u64);
        }
    }
}

fn get_scope(dec: &mut Dec<'_>) -> Result<ControllerScope, String> {
    let tag = dec.u8()?;
    let id = u32::try_from(dec.varint()?).map_err(|_| "scope id exceeds u32".to_string())?;
    match tag {
        0 => Ok(ControllerScope::Blade(BladeId(id))),
        1 => Ok(ControllerScope::Cabinet(CabinetId(id))),
        b => Err(format!("invalid scope tag {b}")),
    }
}

fn get_u32(dec: &mut Dec<'_>) -> Result<u32, String> {
    u32::try_from(dec.varint()?).map_err(|_| "value exceeds u32".to_string())
}

fn get_u16(dec: &mut Dec<'_>) -> Result<u16, String> {
    u16::try_from(dec.varint()?).map_err(|_| "value exceeds u16".to_string())
}

// --- payload codec ------------------------------------------------------

/// Encodes one payload tag-free (the segment's [`EventClass`] carries the
/// variant). Every node reference goes through `node`, which maps it to
/// its dictionary index — the *same* function body runs for dictionary
/// collection (a recording mapper into [`Discard`]) and the real encode (a
/// lookup mapper into the image), so the two passes cannot disagree about
/// which fields are node ids.
pub fn encode_payload(
    payload: &Payload,
    node: &mut impl FnMut(NodeId) -> u64,
    out: &mut impl Sink,
) {
    match payload {
        Payload::Console { node: n, detail } => {
            put_varint(out, node(*n));
            match detail {
                ConsoleDetail::Mce {
                    bank,
                    kind,
                    corrected,
                } => {
                    out.push(*bank);
                    put_ordinal(out, &MceKind::ALL, *kind);
                    put_bool(out, *corrected);
                }
                ConsoleDetail::MemoryError { dimm, correctable } => {
                    out.push(*dimm);
                    put_bool(out, *correctable);
                }
                ConsoleDetail::SegFault { app, pid } => {
                    put_ordinal(out, &AppKind::ALL, *app);
                    put_varint(out, *pid as u64);
                }
                ConsoleDetail::OomKill { victim, pid } => {
                    put_ordinal(out, &AppKind::ALL, *victim);
                    put_varint(out, *pid as u64);
                }
                ConsoleDetail::KernelOops { cause, modules } => {
                    put_ordinal(out, &OopsCause::ALL, *cause);
                    put_varint(out, modules.len() as u64);
                    for m in modules {
                        put_ordinal(out, &StackModule::ALL, *m);
                    }
                }
                ConsoleDetail::KernelPanic { reason } => {
                    put_ordinal(out, &PanicReason::ALL, *reason)
                }
                ConsoleDetail::LustreError { kind } => {
                    put_ordinal(out, &LustreErrorKind::ALL, *kind)
                }
                ConsoleDetail::HungTaskTimeout { task, pid, modules } => {
                    put_ordinal(out, &AppKind::ALL, *task);
                    put_varint(out, *pid as u64);
                    put_varint(out, modules.len() as u64);
                    for m in modules {
                        put_ordinal(out, &StackModule::ALL, *m);
                    }
                }
                ConsoleDetail::CpuStall { cpu } => out.push(*cpu),
                ConsoleDetail::PageAllocFailure { app, order } => {
                    put_ordinal(out, &AppKind::ALL, *app);
                    out.push(*order);
                }
                ConsoleDetail::GpuError { gpu, xid } => {
                    out.push(*gpu);
                    out.push(*xid);
                }
                ConsoleDetail::NhcWarning { test } => put_ordinal(out, &NhcTest::ALL, *test),
                ConsoleDetail::DiskError
                | ConsoleDetail::BiosError
                | ConsoleDetail::UnexpectedShutdown
                | ConsoleDetail::GracefulShutdown => {}
            }
        }
        Payload::Controller { scope, detail } => {
            put_scope(out, *scope);
            match detail {
                ControllerDetail::NodeHeartbeatFault { node: n }
                | ControllerDetail::NodeVoltageFault { node: n }
                | ControllerDetail::L0SysdMce { node: n }
                | ControllerDetail::NodePowerOff { node: n } => put_varint(out, node(*n)),
                ControllerDetail::EcbFault { channel }
                | ControllerDetail::SensorReadFailed { channel } => {
                    put_varint(out, *channel as u64)
                }
                ControllerDetail::RpmFault { fan } => out.push(*fan),
                ControllerDetail::BcHeartbeatFault
                | ControllerDetail::CabinetPowerFault
                | ControllerDetail::MicroControllerFault
                | ControllerDetail::CommunicationFault
                | ControllerDetail::ModuleHealthFault => {}
            }
        }
        Payload::Erd { scope, detail } => {
            put_scope(out, *scope);
            match detail {
                ErdDetail::SedcWarning {
                    sensor,
                    channel,
                    reading,
                    deviation,
                } => {
                    put_ordinal(out, &SensorKind::ALL, *sensor);
                    put_varint(out, *channel as u64);
                    put_f64(out, *reading);
                    put_ordinal(out, &Deviation::ALL, *deviation);
                }
                ErdDetail::SedcReading {
                    sensor,
                    channel,
                    reading,
                } => {
                    put_ordinal(out, &SensorKind::ALL, *sensor);
                    put_varint(out, *channel as u64);
                    put_f64(out, *reading);
                }
                ErdDetail::HwError { node: n, component } => {
                    put_varint(out, node(*n));
                    put_ordinal(out, &Component::ALL, *component);
                }
                ErdDetail::LinkError { port, kind } => {
                    out.push(*port);
                    put_ordinal(out, &LinkErrorKind::ALL, *kind);
                }
                ErdDetail::Environment { air_flow_reduced } => put_bool(out, *air_flow_reduced),
                ErdDetail::CabinetSensorCheck { ok } => put_bool(out, *ok),
                ErdDetail::NodeFailed { node: n } => put_varint(out, node(*n)),
                ErdDetail::HeartbeatStop | ErdDetail::L0Failed => {}
            }
        }
        Payload::Scheduler { detail } => match detail {
            SchedulerDetail::JobStart {
                job,
                apid,
                user,
                app,
                nodes,
                mem_per_node_mib,
            } => {
                put_varint(out, job.0);
                put_varint(out, apid.0);
                put_varint(out, *user as u64);
                put_ordinal(out, &AppKind::ALL, *app);
                put_varint(out, nodes.len() as u64);
                for n in nodes {
                    put_varint(out, node(*n));
                }
                put_varint(out, *mem_per_node_mib as u64);
            }
            SchedulerDetail::JobEnd {
                job,
                exit_code,
                reason,
            } => {
                put_varint(out, job.0);
                put_zigzag(out, *exit_code as i64);
                put_ordinal(out, &JobEndReason::ALL, *reason);
            }
            SchedulerDetail::NhcResult {
                node: n,
                test,
                passed,
            } => {
                put_varint(out, node(*n));
                put_ordinal(out, &NhcTest::ALL, *test);
                put_bool(out, *passed);
            }
            SchedulerDetail::NodeStateChange { node: n, state } => {
                put_varint(out, node(*n));
                put_ordinal(out, &NodeState::ALL, *state);
            }
            SchedulerDetail::EpilogueCleanup { job, node: n } => {
                put_varint(out, job.0);
                put_varint(out, node(*n));
            }
            SchedulerDetail::MemOverallocation {
                job,
                node: n,
                requested_mib,
                available_mib,
            } => {
                put_varint(out, job.0);
                put_varint(out, node(*n));
                put_varint(out, *requested_mib as u64);
                put_varint(out, *available_mib as u64);
            }
        },
    }
}

/// Decodes one payload of `class`, resolving dictionary indexes through
/// `dict`. The inverse of [`encode_payload`].
pub fn decode_payload(
    class: EventClass,
    dec: &mut Dec<'_>,
    dict: &[NodeId],
) -> Result<Payload, String> {
    let node = |dec: &mut Dec<'_>| -> Result<NodeId, String> {
        let idx = dec.varint()? as usize;
        dict.get(idx)
            .copied()
            .ok_or_else(|| format!("node dictionary index {idx} out of range ({})", dict.len()))
    };
    use EventClass as C;
    let payload = match class {
        // Console: node then the class-determined fields.
        C::Mce
        | C::MemoryError
        | C::SegFault
        | C::OomKill
        | C::KernelOops
        | C::KernelPanic
        | C::LustreError
        | C::HungTaskTimeout
        | C::CpuStall
        | C::PageAllocFailure
        | C::GpuError
        | C::DiskError
        | C::BiosError
        | C::NhcWarning
        | C::UnexpectedShutdown
        | C::GracefulShutdown => {
            let n = node(dec)?;
            let detail = match class {
                C::Mce => ConsoleDetail::Mce {
                    bank: dec.u8()?,
                    kind: get_ordinal(dec, &MceKind::ALL)?,
                    corrected: dec.bool()?,
                },
                C::MemoryError => ConsoleDetail::MemoryError {
                    dimm: dec.u8()?,
                    correctable: dec.bool()?,
                },
                C::SegFault => ConsoleDetail::SegFault {
                    app: get_ordinal(dec, &AppKind::ALL)?,
                    pid: get_u32(dec)?,
                },
                C::OomKill => ConsoleDetail::OomKill {
                    victim: get_ordinal(dec, &AppKind::ALL)?,
                    pid: get_u32(dec)?,
                },
                C::KernelOops => {
                    let cause = get_ordinal(dec, &OopsCause::ALL)?;
                    let modules = decode_modules(dec)?;
                    ConsoleDetail::KernelOops { cause, modules }
                }
                C::KernelPanic => ConsoleDetail::KernelPanic {
                    reason: get_ordinal(dec, &PanicReason::ALL)?,
                },
                C::LustreError => ConsoleDetail::LustreError {
                    kind: get_ordinal(dec, &LustreErrorKind::ALL)?,
                },
                C::HungTaskTimeout => {
                    let task = get_ordinal(dec, &AppKind::ALL)?;
                    let pid = get_u32(dec)?;
                    let modules = decode_modules(dec)?;
                    ConsoleDetail::HungTaskTimeout { task, pid, modules }
                }
                C::CpuStall => ConsoleDetail::CpuStall { cpu: dec.u8()? },
                C::PageAllocFailure => ConsoleDetail::PageAllocFailure {
                    app: get_ordinal(dec, &AppKind::ALL)?,
                    order: dec.u8()?,
                },
                C::GpuError => ConsoleDetail::GpuError {
                    gpu: dec.u8()?,
                    xid: dec.u8()?,
                },
                C::DiskError => ConsoleDetail::DiskError,
                C::BiosError => ConsoleDetail::BiosError,
                C::NhcWarning => ConsoleDetail::NhcWarning {
                    test: get_ordinal(dec, &NhcTest::ALL)?,
                },
                C::UnexpectedShutdown => ConsoleDetail::UnexpectedShutdown,
                C::GracefulShutdown => ConsoleDetail::GracefulShutdown,
                _ => unreachable!("console arm filtered above"),
            };
            Payload::Console { node: n, detail }
        }
        // Controller: scope then the class-determined fields.
        C::NodeHeartbeatFault
        | C::NodeVoltageFault
        | C::BcHeartbeatFault
        | C::EcbFault
        | C::SensorReadFailed
        | C::CabinetPowerFault
        | C::MicroControllerFault
        | C::CommunicationFault
        | C::ModuleHealthFault
        | C::RpmFault
        | C::L0SysdMce
        | C::NodePowerOff => {
            let scope = get_scope(dec)?;
            let detail = match class {
                C::NodeHeartbeatFault => ControllerDetail::NodeHeartbeatFault { node: node(dec)? },
                C::NodeVoltageFault => ControllerDetail::NodeVoltageFault { node: node(dec)? },
                C::BcHeartbeatFault => ControllerDetail::BcHeartbeatFault,
                C::EcbFault => ControllerDetail::EcbFault {
                    channel: get_u16(dec)?,
                },
                C::SensorReadFailed => ControllerDetail::SensorReadFailed {
                    channel: get_u16(dec)?,
                },
                C::CabinetPowerFault => ControllerDetail::CabinetPowerFault,
                C::MicroControllerFault => ControllerDetail::MicroControllerFault,
                C::CommunicationFault => ControllerDetail::CommunicationFault,
                C::ModuleHealthFault => ControllerDetail::ModuleHealthFault,
                C::RpmFault => ControllerDetail::RpmFault { fan: dec.u8()? },
                C::L0SysdMce => ControllerDetail::L0SysdMce { node: node(dec)? },
                C::NodePowerOff => ControllerDetail::NodePowerOff { node: node(dec)? },
                _ => unreachable!("controller arm filtered above"),
            };
            Payload::Controller { scope, detail }
        }
        // ERD: scope then the class-determined fields.
        C::SedcWarning
        | C::SedcReading
        | C::HwError
        | C::HeartbeatStop
        | C::L0Failed
        | C::LinkError
        | C::Environment
        | C::CabinetSensorCheck
        | C::NodeFailed => {
            let scope = get_scope(dec)?;
            let detail = match class {
                C::SedcWarning => ErdDetail::SedcWarning {
                    sensor: get_ordinal(dec, &SensorKind::ALL)?,
                    channel: get_u16(dec)?,
                    reading: dec.f64()?,
                    deviation: get_ordinal(dec, &Deviation::ALL)?,
                },
                C::SedcReading => ErdDetail::SedcReading {
                    sensor: get_ordinal(dec, &SensorKind::ALL)?,
                    channel: get_u16(dec)?,
                    reading: dec.f64()?,
                },
                C::HwError => ErdDetail::HwError {
                    node: node(dec)?,
                    component: get_ordinal(dec, &Component::ALL)?,
                },
                C::HeartbeatStop => ErdDetail::HeartbeatStop,
                C::L0Failed => ErdDetail::L0Failed,
                C::LinkError => ErdDetail::LinkError {
                    port: dec.u8()?,
                    kind: get_ordinal(dec, &LinkErrorKind::ALL)?,
                },
                C::Environment => ErdDetail::Environment {
                    air_flow_reduced: dec.bool()?,
                },
                C::CabinetSensorCheck => ErdDetail::CabinetSensorCheck { ok: dec.bool()? },
                C::NodeFailed => ErdDetail::NodeFailed { node: node(dec)? },
                _ => unreachable!("erd arm filtered above"),
            };
            Payload::Erd { scope, detail }
        }
        // Scheduler.
        C::JobStart => {
            let job = JobId(dec.varint()?);
            let apid = Apid(dec.varint()?);
            let user = get_u32(dec)?;
            let app = get_ordinal(dec, &AppKind::ALL)?;
            let len = dec.varint()? as usize;
            if len > dec.remaining() {
                return Err(format!("node list length {len} exceeds segment body"));
            }
            let mut nodes = Vec::with_capacity(len);
            for _ in 0..len {
                nodes.push(node(dec)?);
            }
            let mem_per_node_mib = get_u32(dec)?;
            Payload::Scheduler {
                detail: SchedulerDetail::JobStart {
                    job,
                    apid,
                    user,
                    app,
                    nodes,
                    mem_per_node_mib,
                },
            }
        }
        C::JobEnd => Payload::Scheduler {
            detail: SchedulerDetail::JobEnd {
                job: JobId(dec.varint()?),
                exit_code: i32::try_from(dec.zigzag()?)
                    .map_err(|_| "exit code exceeds i32".to_string())?,
                reason: get_ordinal(dec, &JobEndReason::ALL)?,
            },
        },
        C::NhcResult => Payload::Scheduler {
            detail: SchedulerDetail::NhcResult {
                node: node(dec)?,
                test: get_ordinal(dec, &NhcTest::ALL)?,
                passed: dec.bool()?,
            },
        },
        C::NodeStateChange => Payload::Scheduler {
            detail: SchedulerDetail::NodeStateChange {
                node: node(dec)?,
                state: get_ordinal(dec, &NodeState::ALL)?,
            },
        },
        C::EpilogueCleanup => Payload::Scheduler {
            detail: SchedulerDetail::EpilogueCleanup {
                job: JobId(dec.varint()?),
                node: node(dec)?,
            },
        },
        C::MemOverallocation => Payload::Scheduler {
            detail: SchedulerDetail::MemOverallocation {
                job: JobId(dec.varint()?),
                node: node(dec)?,
                requested_mib: get_u32(dec)?,
                available_mib: get_u32(dec)?,
            },
        },
    };
    debug_assert_eq!(EventClass::of(&payload), class);
    Ok(payload)
}

fn decode_modules(dec: &mut Dec<'_>) -> Result<Vec<StackModule>, String> {
    let len = dec.varint()? as usize;
    if len > dec.remaining() {
        return Err(format!("module list length {len} exceeds segment body"));
    }
    let mut modules = Vec::with_capacity(len);
    for _ in 0..len {
        modules.push(get_ordinal(dec, &StackModule::ALL)?);
    }
    Ok(modules)
}

// --- derived-state codec ------------------------------------------------

fn put_terminal(out: &mut Vec<u8>, t: TerminalKind) {
    match t {
        TerminalKind::Panic(reason) => {
            out.push(0);
            put_ordinal(out, &PanicReason::ALL, reason);
        }
        TerminalKind::UnexpectedShutdown => out.push(1),
        TerminalKind::AdminDown => out.push(2),
        TerminalKind::SchedulerDown => out.push(3),
    }
}

fn get_terminal(dec: &mut Dec<'_>) -> Result<TerminalKind, String> {
    match dec.u8()? {
        0 => Ok(TerminalKind::Panic(get_ordinal(dec, &PanicReason::ALL)?)),
        1 => Ok(TerminalKind::UnexpectedShutdown),
        2 => Ok(TerminalKind::AdminDown),
        3 => Ok(TerminalKind::SchedulerDown),
        b => Err(format!("invalid terminal tag {b}")),
    }
}

/// Encodes a chronological failure list (delta-encoded times).
pub fn encode_failures(failures: &[DetectedFailure], out: &mut Vec<u8>) {
    put_varint(out, failures.len() as u64);
    let mut prev = SimTime::EPOCH;
    for f in failures {
        put_varint(out, f.time.since(prev).as_millis());
        prev = f.time;
        put_varint(out, f.node.0 as u64);
        put_terminal(out, f.terminal);
    }
}

/// Decodes a failure list written by [`encode_failures`].
pub fn decode_failures(dec: &mut Dec<'_>) -> Result<Vec<DetectedFailure>, String> {
    let len = dec.varint()? as usize;
    if len > dec.remaining() {
        return Err(format!("failure count {len} exceeds file body"));
    }
    let mut out = Vec::with_capacity(len);
    let mut prev = SimTime::EPOCH;
    for _ in 0..len {
        let time = prev + hpc_logs::time::SimDuration::from_millis(dec.varint()?);
        prev = time;
        let node = NodeId(get_u32(dec)?);
        let terminal = get_terminal(dec)?;
        out.push(DetectedFailure {
            node,
            time,
            terminal,
        });
    }
    Ok(out)
}

/// Encodes the recognised SWO windows.
pub fn encode_swos(swos: &[SwoWindow], out: &mut Vec<u8>) {
    put_varint(out, swos.len() as u64);
    for w in swos {
        put_varint(out, w.start.as_millis());
        put_varint(out, w.end.since(w.start).as_millis());
        put_varint(out, w.failures as u64);
    }
}

/// Decodes SWO windows written by [`encode_swos`].
pub fn decode_swos(dec: &mut Dec<'_>) -> Result<Vec<SwoWindow>, String> {
    let len = dec.varint()? as usize;
    if len > dec.remaining() {
        return Err(format!("swo count {len} exceeds file body"));
    }
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        let start = SimTime::from_millis(dec.varint()?);
        let end = start + hpc_logs::time::SimDuration::from_millis(dec.varint()?);
        let failures = dec.varint()? as usize;
        out.push(SwoWindow {
            start,
            end,
            failures,
        });
    }
    Ok(out)
}

/// One representative [`hpc_logs::event::LogEvent`] of every
/// [`EventClass`]; exhaustive codec coverage depends on this list staying
/// total. Shared by the codec and store-level tests.
#[cfg(test)]
pub(crate) fn one_of_every_class() -> Vec<hpc_logs::event::LogEvent> {
    use hpc_logs::event::LogEvent;
    let node = NodeId(5);
    let blade = ControllerScope::Blade(node.blade());
    let cab = ControllerScope::Cabinet(CabinetId(1));
    let console = |detail| Payload::Console { node, detail };
    let bc = |detail| Payload::Controller {
        scope: blade,
        detail,
    };
    let erd = |detail| Payload::Erd { scope: cab, detail };
    let sched = |detail| Payload::Scheduler { detail };
    let payloads = vec![
        console(ConsoleDetail::Mce {
            bank: 3,
            kind: MceKind::Dimm,
            corrected: false,
        }),
        console(ConsoleDetail::MemoryError {
            dimm: 7,
            correctable: true,
        }),
        console(ConsoleDetail::SegFault {
            app: AppKind::Matlab,
            pid: 4242,
        }),
        console(ConsoleDetail::OomKill {
            victim: AppKind::Python,
            pid: 777,
        }),
        console(ConsoleDetail::KernelOops {
            cause: OopsCause::NullDeref,
            modules: vec![StackModule::DvsIpcMsg, StackModule::Generic],
        }),
        console(ConsoleDetail::KernelPanic {
            reason: PanicReason::HungTask,
        }),
        console(ConsoleDetail::LustreError {
            kind: LustreErrorKind::PageFaultLock,
        }),
        console(ConsoleDetail::HungTaskTimeout {
            task: AppKind::Genomics,
            pid: 99,
            modules: vec![StackModule::IoSchedule],
        }),
        console(ConsoleDetail::CpuStall { cpu: 11 }),
        console(ConsoleDetail::PageAllocFailure {
            app: AppKind::Climate,
            order: 4,
        }),
        console(ConsoleDetail::GpuError { gpu: 1, xid: 79 }),
        console(ConsoleDetail::DiskError),
        console(ConsoleDetail::BiosError),
        console(ConsoleDetail::NhcWarning {
            test: NhcTest::FreeMemory,
        }),
        console(ConsoleDetail::UnexpectedShutdown),
        console(ConsoleDetail::GracefulShutdown),
        bc(ControllerDetail::NodeHeartbeatFault { node }),
        bc(ControllerDetail::NodeVoltageFault { node }),
        bc(ControllerDetail::BcHeartbeatFault),
        bc(ControllerDetail::EcbFault { channel: 513 }),
        bc(ControllerDetail::SensorReadFailed { channel: 9 }),
        Payload::Controller {
            scope: cab,
            detail: ControllerDetail::CabinetPowerFault,
        },
        bc(ControllerDetail::MicroControllerFault),
        bc(ControllerDetail::CommunicationFault),
        bc(ControllerDetail::ModuleHealthFault),
        bc(ControllerDetail::RpmFault { fan: 2 }),
        bc(ControllerDetail::L0SysdMce { node }),
        bc(ControllerDetail::NodePowerOff { node }),
        erd(ErdDetail::SedcWarning {
            sensor: SensorKind::Voltage,
            channel: 40,
            reading: 11.125,
            deviation: Deviation::BelowMinimum,
        }),
        erd(ErdDetail::SedcReading {
            sensor: SensorKind::Temperature,
            channel: 2,
            reading: 38.5,
        }),
        Payload::Erd {
            scope: blade,
            detail: ErdDetail::HwError {
                node,
                component: Component::Nic,
            },
        },
        erd(ErdDetail::HeartbeatStop),
        erd(ErdDetail::L0Failed),
        Payload::Erd {
            scope: blade,
            detail: ErdDetail::LinkError {
                port: 6,
                kind: LinkErrorKind::Failover { succeeded: false },
            },
        },
        erd(ErdDetail::Environment {
            air_flow_reduced: true,
        }),
        erd(ErdDetail::CabinetSensorCheck { ok: false }),
        erd(ErdDetail::NodeFailed { node }),
        sched(SchedulerDetail::JobStart {
            job: JobId(1_000_001),
            apid: Apid(77),
            user: 2001,
            app: AppKind::MpiSimulation,
            nodes: vec![NodeId(0), NodeId(1), node],
            mem_per_node_mib: 65_536,
        }),
        sched(SchedulerDetail::JobEnd {
            job: JobId(1_000_001),
            exit_code: -11,
            reason: JobEndReason::AppError,
        }),
        sched(SchedulerDetail::NhcResult {
            node,
            test: NhcTest::AppExit,
            passed: false,
        }),
        sched(SchedulerDetail::NodeStateChange {
            node,
            state: NodeState::AdminDown,
        }),
        sched(SchedulerDetail::EpilogueCleanup {
            job: JobId(1_000_001),
            node,
        }),
        sched(SchedulerDetail::MemOverallocation {
            job: JobId(1_000_001),
            node,
            requested_mib: 131_072,
            available_mib: 65_536,
        }),
    ];
    payloads
        .into_iter()
        .enumerate()
        .map(|(i, payload)| LogEvent {
            time: SimTime::from_millis(i as u64 * 1000),
            payload,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_edge_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(Dec::new(&buf).varint(), Ok(v), "varint {v}");
        }
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            let mut buf = Vec::new();
            put_zigzag(&mut buf, v);
            assert_eq!(Dec::new(&buf).zigzag(), Ok(v), "zigzag {v}");
        }
    }

    #[test]
    fn truncated_reads_error_cleanly() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 1_000_000);
        buf.truncate(1);
        assert!(Dec::new(&buf).varint().is_err());
        assert!(Dec::new(&[]).u8().is_err());
        assert!(Dec::new(&[2]).bool().is_err());
        // An all-continuation-bit varint must terminate with an error.
        assert!(Dec::new(&[0x80; 16]).varint().is_err());
    }

    #[test]
    fn every_class_round_trips_through_the_codec() {
        let events = one_of_every_class();
        let mut seen = std::collections::BTreeSet::new();
        for e in &events {
            seen.insert(EventClass::of(&e.payload));
        }
        assert_eq!(seen.len(), EventClass::COUNT, "fixture covers every class");

        for e in &events {
            let class = EventClass::of(&e.payload);
            // Pass 1: collect referenced nodes into a dictionary.
            let mut dict: Vec<NodeId> = Vec::new();
            let mut scratch = Vec::new();
            encode_payload(
                &e.payload,
                &mut |n| {
                    if !dict.contains(&n) {
                        dict.push(n);
                    }
                    0
                },
                &mut scratch,
            );
            // Pass 2: encode against the dictionary.
            let mut buf = Vec::new();
            encode_payload(
                &e.payload,
                &mut |n| dict.iter().position(|&d| d == n).unwrap() as u64,
                &mut buf,
            );
            let mut dec = Dec::new(&buf);
            let decoded = decode_payload(class, &mut dec, &dict).unwrap();
            assert_eq!(decoded, e.payload, "{class:?}");
            assert_eq!(dec.remaining(), 0, "{class:?} leaves trailing bytes");
        }
    }

    #[test]
    fn derived_state_round_trips() {
        let failures = vec![
            DetectedFailure {
                node: NodeId(3),
                time: SimTime::from_millis(1_000),
                terminal: TerminalKind::Panic(PanicReason::FatalMce),
            },
            DetectedFailure {
                node: NodeId(900),
                time: SimTime::from_millis(90_000_000),
                terminal: TerminalKind::SchedulerDown,
            },
        ];
        let swos = vec![SwoWindow {
            start: SimTime::from_millis(500),
            end: SimTime::from_millis(2_500),
            failures: 40,
        }];
        let mut buf = Vec::new();
        encode_failures(&failures, &mut buf);
        encode_swos(&swos, &mut buf);
        let mut dec = Dec::new(&buf);
        assert_eq!(decode_failures(&mut dec).unwrap(), failures);
        assert_eq!(decode_swos(&mut dec).unwrap(), swos);
        assert_eq!(dec.remaining(), 0);
    }

    /// `all` written as text is `reference`, and each variant encodes as
    /// its position there and decodes back.
    fn pinned<T: Copy + PartialEq + std::fmt::Debug>(
        all: &'static [T],
        text: fn(T) -> &'static str,
        reference: &[&str],
    ) {
        let texts: Vec<&str> = all.iter().map(|&v| text(v)).collect();
        assert_eq!(texts, reference);
        for (i, &v) in all.iter().enumerate() {
            let mut buf = Vec::new();
            put_ordinal(&mut buf, all, v);
            assert_eq!(buf, [i as u8], "{v:?}");
            assert_eq!(get_ordinal(&mut Dec::new(&buf), all), Ok(v));
        }
    }

    /// The on-disk ordinals of all thirteen vocabularies, pinned as the text
    /// of each `ALL` in the order stores were written with. A reordered
    /// `ALL`, or a variant inserted anywhere but the end, changes what
    /// stored bytes mean and fails here, whether or not any golden scenario
    /// emits the variants it moves.
    #[test]
    fn ordinals_match_the_on_disk_reference() {
        pinned(
            &NodeState::ALL,
            NodeState::token,
            &["up", "suspect", "admindown", "down", "poweroff"],
        );
        pinned(&MceKind::ALL, MceKind::token, &["page", "cache", "dimm"]);
        pinned(
            &OopsCause::ALL,
            OopsCause::first_line,
            &[
                "BUG: unable to handle kernel paging request",
                "BUG: kernel NULL pointer dereference",
                "invalid opcode: 0000 [#1] SMP",
                "general protection fault: 0000 [#1] SMP",
            ],
        );
        pinned(
            &StackModule::ALL,
            StackModule::symbol,
            &[
                "sleep_on_page",
                "ldlm_bl_thread_main",
                "dvs_ipc_msg",
                "mce_log",
                "rwsem_down_failed",
                "oom_kill_process",
                "ptlrpc_main",
                "xpmem_fault",
                "do_page_fault",
                "do_fork",
                "io_schedule",
                "schedule_timeout",
            ],
        );
        pinned(
            &LustreErrorKind::ALL,
            LustreErrorKind::token,
            &[
                "timeout",
                "evicted",
                "io_error",
                "page_fault_lock",
                "inode_error",
            ],
        );
        pinned(
            &PanicReason::ALL,
            PanicReason::message,
            &[
                "Fatal Machine check",
                "LBUG",
                "Fatal exception",
                "Out of memory and no killable processes",
                "CPU context corrupt",
                "firmware fatal error",
                "driver fatal error",
                "hung_task: blocked tasks",
            ],
        );
        pinned(
            &AppKind::ALL,
            AppKind::executable,
            &[
                "mpi_sim",
                "matlab",
                "python3",
                "namd2",
                "wrf.exe",
                "genome_pipe",
            ],
        );
        pinned(
            &JobEndReason::ALL,
            JobEndReason::token,
            &[
                "completed",
                "walltime",
                "memlimit",
                "user_cancel",
                "node_fail",
                "app_error",
            ],
        );
        pinned(
            &NhcTest::ALL,
            NhcTest::token,
            &[
                "heartbeat",
                "fs_mount",
                "free_memory",
                "app_exit",
                "process_table",
            ],
        );
        pinned(
            &SensorKind::ALL,
            SensorKind::mnemonic,
            &["TEMP", "VOLT", "FAN_RPM", "AIR_VEL", "CURRENT", "POWER"],
        );
        pinned(
            &Deviation::ALL,
            Deviation::as_str,
            &[
                "nominal",
                "below minimum threshold",
                "above maximum threshold",
            ],
        );
        pinned(
            &Component::ALL,
            Component::mnemonic,
            &["CPU", "DIMM", "NIC", "DISK", "GPU", "BB_SSD"],
        );
        pinned(
            &LinkErrorKind::ALL,
            LinkErrorKind::as_log_fragment,
            &[
                "lane CRC error",
                "lane degrade: width reduced",
                "link inactive",
                "failover completed",
                "failover FAILED",
            ],
        );
    }

    #[test]
    fn corrupted_ordinals_error_not_panic() {
        // A panic reason ordinal of 200 must be rejected, naming its type.
        assert_eq!(
            get_ordinal(&mut Dec::new(&[200]), &PanicReason::ALL),
            Err("invalid PanicReason ordinal 200".to_string())
        );
        assert!(get_scope(&mut Dec::new(&[7, 0])).is_err());
        assert!(get_terminal(&mut Dec::new(&[9])).is_err());
    }
}

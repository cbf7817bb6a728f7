//! Pipeline validation against injected ground truth, and the DESIGN.md
//! ablations as experiments.
//!
//! This is the part the paper's authors could not do: because our substrate
//! is a generative simulator, every inference of the measurement pipeline
//! can be scored against the truth that produced the logs.

use std::fmt::Write;

use hpc_diagnosis::lead_time::{false_positive_analysis, lead_times, summarize};
use hpc_diagnosis::root_cause::last_oops;
use hpc_diagnosis::stack_trace::{origin_by_vote, origin_first_frames, TraceOrigin};
use hpc_diagnosis::{Diagnosis, DiagnosisConfig};
use hpc_faultsim::{Family, Scenario, TrueRootCause};
use hpc_logs::time::SimDuration;
use hpc_platform::SystemId;

use crate::common::header;
use crate::truth::Accuracy;

/// Cross-validation of the whole pipeline against ground truth.
pub fn validation() -> String {
    let mut s = header(
        "validation",
        "Pipeline vs injected ground truth (not in the paper — enabled by the simulator substrate)",
        "detection recall/precision and root-cause accuracy per system",
    );
    s.push_str("  system | injected | detected | recall | precision | cause exact | cause class\n");
    for (system, seed) in [
        (SystemId::S1, 91u64),
        (SystemId::S2, 92),
        (SystemId::S3, 93),
        (SystemId::S4, 94),
    ] {
        let out = Scenario::new(system, 2, 28, seed).run();
        let d = Diagnosis::from_archive(&out.archive, DiagnosisConfig::default());
        let acc = Accuracy::of(&out.truth.failures, &d);
        let _ = writeln!(
            s,
            "  {:>6} | {:>8} | {:>8} | {:>5.1}% | {:>8.1}% | {:>10.1}% | {:>10.1}%",
            system.name(),
            acc.injected,
            acc.detected,
            100.0 * acc.recall(),
            100.0 * acc.precision(),
            100.0 * acc.exact_rate(),
            100.0 * acc.class_rate()
        );
    }
    s
}

/// Ablation #3: external-correlation window sweep — how the window choice
/// moves Fig. 13's enhanceable fraction and Fig. 14's FP share.
pub fn ablation_window() -> String {
    let mut s = header(
        "ablation-window",
        "External-correlation window sweep (DESIGN.md ablation #3)",
        "the ≈5× enhancement and FPR reduction depend on how far back the ERD stream is searched",
    );
    let out = Scenario::new(SystemId::S1, 2, 28, 95).run();
    s.push_str("  window | enhanceable | mean ext lead | factor | internal FP% | +external FP%\n");
    for hours in [1u64, 2, 4, 8, 24] {
        let d = Diagnosis::from_archive(
            &out.archive,
            DiagnosisConfig {
                external_window: SimDuration::from_hours(hours),
                ..DiagnosisConfig::default()
            },
        );
        let lt = summarize(&lead_times(&d));
        let fp = false_positive_analysis(&d);
        let _ = writeln!(
            s,
            "  {:>4} h | {:>10.1}% | {:>9.1} min | {:>5.1}x | {:>11.1}% | {:>12.1}%",
            hours,
            lt.enhanceable_percent(),
            lt.mean_external_mins,
            lt.enhancement_factor(),
            fp.internal_fp_percent(),
            fp.combined_fp_percent()
        );
    }
    s.push_str(
        "  (short windows miss early indicators; very long windows add little —\n\
         \x20 the 2 h default sits at the knee)\n",
    );
    s
}

/// Ablation #4: first-frames vs whole-trace-vote stack attribution, scored
/// against ground truth on the app-vs-filesystem discrimination.
pub fn ablation_trace() -> String {
    let mut s = header(
        "ablation-trace",
        "Stack-trace attribution: first-frames vs whole-trace voting (DESIGN.md ablation #4)",
        "the paper inspects 'the beginning of the stack traces' — is that better than voting?",
    );
    let out = Scenario::new(SystemId::S2, 2, 56, 96).run();
    let d = Diagnosis::from_archive(&out.archive, DiagnosisConfig::default());

    // Ground-truth label per failure with an LBUG-flavoured oops: app or fs.
    let mut ff_ok = 0;
    let mut vote_ok = 0;
    let mut total = 0;
    for truth in &out.truth.failures {
        let want = match truth.cause {
            TrueRootCause::AppFsBug => TraceOrigin::Application,
            TrueRootCause::LustreBug => TraceOrigin::FileSystem,
            _ => continue,
        };
        let Some(modules) = last_oops(&d, truth.node, truth.time) else {
            continue;
        };
        total += 1;
        if origin_first_frames(modules) == want {
            ff_ok += 1;
        }
        if origin_by_vote(modules) == want {
            vote_ok += 1;
        }
    }
    let _ = writeln!(
        s,
        "  failures with FS-flavoured oops traces: {total}\n  first-frames accuracy: {:.1}%\n  whole-trace voting:    {:.1}%",
        100.0 * ff_ok as f64 / total.max(1) as f64,
        100.0 * vote_ok as f64 / total.max(1) as f64
    );
    s
}

/// SWO recognition report (§III's "<3%" framing).
pub fn swo_report() -> String {
    let mut s = header(
        "swo",
        "System-wide outage recognition & exclusion",
        "SWOs are <3% of anomalous failures; intended shutdowns are recognised and excluded",
    );
    let mut sc = Scenario::new(SystemId::S1, 2, 28, 97);
    sc.config.rates[Family::Swo] = 0.07;
    let out = sc.run();
    let d = Diagnosis::from_archive(&out.archive, DiagnosisConfig::default());
    let intended = out.truth.swos.iter().filter(|x| x.intended).count();
    let anomalous = out.truth.swos.len() - intended;
    let _ = writeln!(
        s,
        "  injected SWOs: {} intended, {anomalous} anomalous (FS collapse)",
        intended
    );
    let _ = writeln!(s, "  recognised SWO windows: {}", d.swos.len());
    for w in &d.swos {
        let _ = writeln!(
            s,
            "    {} .. {} swallowing {} failures",
            w.start, w.end, w.failures
        );
    }
    let _ = writeln!(
        s,
        "  node failures analysed: {} (plus {} excluded as SWO fallout)",
        d.failures.len(),
        d.swo_failures.len()
    );
    let _ = writeln!(
        s,
        "  intended shutdowns excluded at detection: {}",
        hpc_diagnosis::swo::intended_shutdown_count(d.events())
    );
    s
}

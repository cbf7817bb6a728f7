//! Online failure prediction: evaluating the internal-only vs
//! externally-correlated predictors (the deployable form of Obs. 5 /
//! Figs. 13–14), plus the resulting operator advisories.
//!
//! ```text
//! cargo run --release --example failure_prediction
//! ```

use hpc_node_failures::diagnosis::advisor::{advise, render_advisories};
use hpc_node_failures::diagnosis::jobs::JobLog;
use hpc_node_failures::diagnosis::prediction::compare;
use hpc_node_failures::diagnosis::{Diagnosis, DiagnosisConfig};
use hpc_node_failures::faultsim::Scenario;
use hpc_node_failures::platform::SystemId;

fn main() {
    let out = Scenario::new(SystemId::S1, 2, 28, 2024).run();
    let d = Diagnosis::from_archive(&out.archive, DiagnosisConfig::default());

    let cmp = compare(&d);
    println!("predictor            | alerts | precision | recall | mean lead");
    println!("---------------------+--------+-----------+--------+----------");
    for (name, ev) in [
        ("internal-only", &cmp.internal_only),
        ("with external corr.", &cmp.with_external),
    ] {
        println!(
            "{name:<20} | {:>6} | {:>8.1}% | {:>5.1}% | {:>6.1} min",
            ev.alerts.len(),
            100.0 * ev.precision(),
            100.0 * ev.recall(),
            ev.mean_lead_mins
        );
    }
    println!(
        "\n(paper, Obs. 5: external correlations lower the false-positive rate;\n\
         \x20they only cover the 10–28% of failures with early external indicators,\n\
         \x20so recall drops while precision rises)"
    );

    // What an operator would do with this diagnosis.
    let jobs = JobLog::from_diagnosis(&d);
    let advisories = advise(&d, &jobs);
    println!("\nfirst 12 advisories:");
    let text = render_advisories(&advisories);
    for line in text.lines().take(13) {
        println!("{line}");
    }
    println!("  ... {} advisories total", advisories.len());
}

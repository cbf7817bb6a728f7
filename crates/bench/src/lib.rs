//! # hpc-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (run via the `experiments` binary) and the `hpc-chaos`
//! corruption-robustness campaign. Performance numbers come from
//! `hpc-sysbench` (`benchmark/` at the repo root), not from this crate;
//! what this crate holds of performance is the release-mode inequalities in
//! `tests/*_smoke.rs` (pooled ingest ≥ sequential, index ≥ scan, O(window)
//! stream memory).
//!
//! Each experiment is a pure function returning its rendered output; the
//! registry in [`EXPERIMENTS`] maps the paper's table/figure ids to them.
//! All experiments are seeded and deterministic.

pub mod common;
pub mod figs_external;
pub mod figs_jobs;
pub mod figs_lead;
pub mod figs_time;
pub mod tables;
pub mod validation;

/// One registered experiment.
pub struct Experiment {
    /// Identifier (`table1`, `fig13`, `s3mix`, …).
    pub id: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Runs the experiment and returns its rendered output.
    pub run: fn() -> String,
}

/// All experiments, in paper order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "table1",
        description: "HPC system details",
        run: tables::table1,
    },
    Experiment {
        id: "table2",
        description: "Log sources and volumes",
        run: tables::table2,
    },
    Experiment {
        id: "table3",
        description: "Fault breakdown (health faults vs SEDC warnings)",
        run: tables::table3,
    },
    Experiment {
        id: "table4",
        description: "Failure causes and stack modules",
        run: tables::table4,
    },
    Experiment {
        id: "table5",
        description: "Sample failure cases",
        run: tables::table5,
    },
    Experiment {
        id: "table6",
        description: "Findings and recommendations",
        run: tables::table6,
    },
    Experiment {
        id: "table7",
        description: "Comparative analysis (qualitative)",
        run: tables::table7,
    },
    Experiment {
        id: "fig3",
        description: "Inter-node failure time CDFs (S1)",
        run: figs_time::fig3,
    },
    Experiment {
        id: "fig4",
        description: "Dominant failure reason per day (S1)",
        run: figs_time::fig4,
    },
    Experiment {
        id: "fig5",
        description: "NVF/NHF failure correspondence (S1-S4)",
        run: figs_external::fig5,
    },
    Experiment {
        id: "fig6",
        description: "NHF outcome breakdown (S1)",
        run: figs_external::fig6,
    },
    Experiment {
        id: "fig7",
        description: "Failures on faulty blades/cabinets (S1-S4)",
        run: figs_external::fig7,
    },
    Experiment {
        id: "fig8",
        description: "Weekly SEDC census (S1)",
        run: figs_external::fig8,
    },
    Experiment {
        id: "fig9",
        description: "Hourly chatty-blade warnings (S2)",
        run: figs_external::fig9,
    },
    Experiment {
        id: "fig10",
        description: "Erroneous vs failed nodes per day (S1)",
        run: figs_external::fig10,
    },
    Experiment {
        id: "fig11",
        description: "Per-node CPU temperature map (S1)",
        run: figs_external::fig11,
    },
    Experiment {
        id: "fig12",
        description: "Job exit-status census (S1)",
        run: figs_jobs::fig12,
    },
    Experiment {
        id: "fig13",
        description: "Lead-time enhancement (S1-S4)",
        run: figs_lead::fig13,
    },
    Experiment {
        id: "fig14",
        description: "False-positive rate comparison (S1-S4)",
        run: figs_lead::fig14,
    },
    Experiment {
        id: "fig15",
        description: "S5 call-trace pattern census",
        run: figs_jobs::fig15,
    },
    Experiment {
        id: "fig16",
        description: "S2 failure breakdown",
        run: figs_jobs::fig16,
    },
    Experiment {
        id: "fig17",
        description: "Memory overallocation forensics",
        run: figs_jobs::fig17,
    },
    Experiment {
        id: "fig18",
        description: "Blade same-reason share (S1, S2)",
        run: figs_time::fig18,
    },
    Experiment {
        id: "fig19",
        description: "Job-triggered MTBF (S3)",
        run: figs_time::fig19,
    },
    Experiment {
        id: "s3mix",
        description: "S3 root-cause class mix",
        run: figs_time::s3mix,
    },
    Experiment {
        id: "validation",
        description: "Pipeline vs ground truth (recall/precision/accuracy)",
        run: validation::validation,
    },
    Experiment {
        id: "ablation-window",
        description: "External-correlation window sweep",
        run: validation::ablation_window,
    },
    Experiment {
        id: "ablation-trace",
        description: "First-frames vs voting stack attribution",
        run: validation::ablation_trace,
    },
    Experiment {
        id: "swo",
        description: "System-wide outage recognition & exclusion",
        run: validation::swo_report,
    },
];

/// Looks up an experiment by id.
pub fn find(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

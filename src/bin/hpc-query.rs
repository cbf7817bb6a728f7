//! Ad-hoc queries over a persisted segment store, without re-running the
//! diagnosis pipeline.
//!
//! ```text
//! hpc-query <store-dir> count      [filters] [--json]
//! hpc-query <store-dir> histogram  --by <class|node|blade|cabinet|day|hour> [filters] [--json]
//! hpc-query <store-dir> tail       [-n N] [filters] [--json]
//! hpc-query <store-dir> failures   [filters] [--json]
//!
//! filters:
//!   --class <key>        event class (repeatable; see EventClass keys)
//!   --node <nid00042|42> subject node
//!   --blade <id>         subject blade
//!   --cabinet <id>       implicated cabinet
//!   --from <time>        inclusive lower bound (ISO timestamp or epoch ms)
//!   --to <time>          exclusive upper bound (ISO timestamp or epoch ms)
//! ```
//!
//! The store is written by `hpc-diagnose --save-store <dir>` and reopens
//! in milliseconds; results are definitionally identical to querying the
//! in-memory `EventStore` built from the same archive (the round-trip
//! proptests in `crates/core/tests` enforce exactly that). Text output is
//! the default; `--json` emits one pretty-printed JSON document.
//!
//! Queries run through the lazy planner (`query::plan`): segments the
//! filter cannot touch are pruned on the manifest catalogue, a
//! class-only `count` is answered from manifest row counts without
//! decoding a row, and `tail` streams through a bounded ring — the full
//! event vector is never materialised.

use std::path::Path;
use std::process::exit;

use hpc_node_failures::diagnosis::query::{self, Request, RunError};
use hpc_node_failures::diagnosis::segment;
use hpc_node_failures::telemetry::Flags;

const USAGE: &str = "usage: hpc-query <store-dir> <count|histogram|tail|failures> \
     [--class <key>]... [--node <nid>] [--blade <id>] [--cabinet <id>] \
     [--from <time>] [--to <time>] [--by <dim>] [-n <N>] [--json]";

fn main() {
    let mut args = Flags::new(USAGE);
    let (Some(store_dir), Some(verb)) = (args.next(), args.next()) else {
        args.usage()
    };
    let mut request = Request::default();
    let mut json = false;
    if let Err(reason) = request.set("verb", &verb) {
        args.refuse(&reason);
    }
    while let Some(arg) = args.next() {
        // Every flag but `--json` is the query vocabulary behind dashes.
        let key = match arg.as_str() {
            "--json" => {
                json = true;
                continue;
            }
            "-n" => "n",
            long => long.strip_prefix("--").unwrap_or_else(|| args.usage()),
        };
        let value = args.value();
        if let Err(reason) = request.set(key, &value) {
            args.refuse(&reason);
        }
    }

    // Validate-everything open — checksums, footers, fingerprint — but
    // decode nothing. The verb decodes only what its plan selects.
    let die = |e: segment::OpenError| -> ! {
        eprintln!("{e}");
        exit(1);
    };
    let store = segment::Store::open(Path::new(&store_dir)).unwrap_or_else(|e| die(e));
    let plan = query::plan(&store, &request.filter);
    match request.run(&plan, store.manifest().scheduler) {
        Ok(answer) if json => print!("{}", answer.json().pretty()),
        Ok(answer) => print!("{}", answer.text()),
        Err(RunError::Request(reason)) => args.refuse(&reason),
        Err(RunError::Store(e)) => die(e),
    }
}

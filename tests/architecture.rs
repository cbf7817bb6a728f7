//! Architecture rules: the structural invariants that hold the batch and live
//! paths to one implementation each. Each rule is a function over the
//! package's `(path, text)` pairs that returns its violations, and each has a
//! test below that plants the violation it exists to catch.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::{fs, path::Path, sync::OnceLock};

/// This file names everything the rules forbid, so no rule reads it.
const SELF: &str = "tests/architecture.rs";
/// `grep` reads all of a file's lines, or only its shipping lines.
const ALL: bool = true;
const SHIPPING: bool = false;

/// `(path relative to the package root, text)` pairs, sorted by path.
type Tree = Vec<(String, String)>;
/// A test on a path or a line.
type Pred<'a> = &'a dyn Fn(&str) -> bool;

/// The paths the root `.gitignore` lists. Any line but a blank, a comment or
/// an anchored plain path fails: the walker would not follow it.
fn ignored(gitignore: &str) -> Vec<String> {
    let lines = gitignore.lines().map(str::trim);
    let mut paths = Vec::new();
    for line in lines.filter(|l| !l.is_empty() && !l.starts_with('#')) {
        let path = line.strip_prefix('/').unwrap_or("").trim_end_matches('/');
        let plain = !path.is_empty() && !path.contains(['*', '?', '[', '\\', '!']);
        assert!(plain, "{line:?} is not an anchored plain path");
        paths.push(path.to_string());
    }
    paths
}

/// Every UTF-8 file under `root` but `.git` and the ignored paths. Others,
/// like the `testdata/store-v1` segments, are skipped, as `git grep` does.
fn walk(root: &Path) -> Tree {
    let skip = ignored(&fs::read_to_string(root.join(".gitignore")).unwrap_or_default());
    let (mut tree, mut dirs) = (Vec::new(), vec![String::new()]);
    while let Some(dir) = dirs.pop() {
        for entry in fs::read_dir(root.join(&dir)).unwrap().map(Result::unwrap) {
            let path = format!("{dir}{}", entry.file_name().to_string_lossy());
            if path == ".git" || skip.contains(&path) {
                continue;
            } else if entry.file_type().unwrap().is_dir() {
                dirs.push(path + "/");
            } else if let Ok(text) = String::from_utf8(fs::read(entry.path()).unwrap()) {
                tree.push((path, text));
            }
        }
    }
    tree.sort();
    tree
}

/// A Rust file's shipping lines, `(line number, line)`: those above its first
/// line that starts with `#[cfg(test)]`, with or without comment lines.
fn shipping(text: &str, comments: bool) -> Vec<(usize, &str)> {
    let above = text.lines().take_while(|l| !l.starts_with("#[cfg(test)]"));
    let kept = above.enumerate().filter(|l| comments || !is_comment(l.1));
    kept.map(|(i, l)| (i + 1, l)).collect()
}

fn is_comment(line: &str) -> bool {
    line.trim_start().starts_with("//")
}

/// `path` matches one of the `|`-separated git pathspecs in `patterns`
/// (`*` matches any run of characters, `/` included).
fn glob(patterns: &str, path: &str) -> bool {
    patterns.split('|').any(|g| match g.split_once('*') {
        None => g == path,
        Some((head, tail)) => path.strip_prefix(head).is_some_and(|rest| {
            (0..=rest.len()).any(|i| rest.is_char_boundary(i) && glob(tail, &rest[i..]))
        }),
    })
}

/// `path` lies in one of the `|`-separated directories `dirs`.
fn under(dirs: &str, path: &str) -> bool {
    let inside = |d| path.strip_prefix(d).is_some_and(|r| r.starts_with('/'));
    dirs.split('|').any(inside)
}

/// `path` lies in `src` or a `crates/*/src`.
fn sources(path: &str) -> bool {
    under("src", path) || glob("crates/*/src/*", path)
}

/// The files of `tree` in `scope`, this file never among them.
fn files<'a>(tree: &'a Tree, scope: Pred) -> Vec<(&'a str, &'a str)> {
    let kept = tree.iter().filter(|(p, _)| p != SELF && scope(p));
    kept.map(|(p, t)| (p.as_str(), t.as_str())).collect()
}

/// `path:line: text` for each line `hit` matches in the files in `scope`,
/// reading `ALL` their lines or only the `SHIPPING` ones, comments included.
fn grep(tree: &Tree, scope: Pred, all: bool, hit: Pred) -> Vec<String> {
    let mut found = Vec::new();
    for (path, text) in files(tree, scope) {
        let shipped = shipping(text, true).len();
        let lines = text.lines().take(if all { usize::MAX } else { shipped });
        let hits = lines.enumerate().filter(|(_, l)| hit(l));
        found.extend(hits.map(|(i, l)| format!("{path}:{}: {l}", i + 1)));
    }
    found
}

/// A line test: the line contains one of the `|`-separated `needles`.
fn any(needles: &str) -> impl Fn(&str) -> bool + '_ {
    move |line| needles.split('|').any(|n| line.contains(n))
}

/// An identifier character, as `git grep -w` and awk's word boundaries see it.
fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The leading identifier characters of `s`.
fn ident(s: &str) -> &str {
    &s[..s.find(|c| !is_ident(c)).unwrap_or(s.len())]
}

/// The identifiers of `line`.
fn words(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c| !is_ident(c)).filter(|w| !w.is_empty())
}

/// The name a `pub fn`, `pub const fn` or `pub unsafe fn` line defines.
fn pub_fn(line: &str) -> Option<&str> {
    let rest = line.trim_start_matches([' ', '\t']).strip_prefix("pub ")?;
    let qualifiers = ["const ", "unsafe ", ""];
    let rest = qualifiers.iter().find_map(|q| rest.strip_prefix(q))?;
    Some(ident(rest.strip_prefix("fn ")?)).filter(|name| !name.is_empty())
}

/// Nothing ships that nothing calls: each `pub fn` in the shipping code of
/// src and crates/*/src is named, as a whole word, on a line of another `.rs`
/// file under crates, src, tests, examples or benchmark that is no comment or
/// `pub use`, or on a shipping non-comment line of its own file besides its
/// definition. Returns how many `pub fn`s it examined, and the uncalled.
fn reference_census(tree: &Tree) -> (usize, Vec<String>) {
    let callers = "crates/*.rs|src/*.rs|tests/*.rs|examples/*.rs|benchmark/*.rs";
    let mut named: HashMap<&str, HashSet<&str>> = HashMap::new();
    for (path, text) in files(tree, &|p| glob(callers, p)) {
        let reexport = |l: &str| l.trim_start().starts_with("pub use ");
        for line in text.lines().filter(|l| !is_comment(l) && !reexport(l)) {
            words(line).for_each(|w| _ = named.entry(w).or_default().insert(path));
        }
    }
    let (mut examined, mut uncalled) = (0, Vec::new());
    for (path, text) in files(tree, &|p| glob("crates/*/src/*.rs|src/*.rs", p)) {
        let code = shipping(text, true);
        let defined: BTreeSet<_> = code.iter().filter_map(|l| pub_fn(l.1)).collect();
        for name in defined {
            examined += 1;
            // Its definition names it in its own file, so 2 files is a caller.
            let elsewhere = named[name].len() > 1;
            let names = |l: &str| pub_fn(l) != Some(name) && words(l).any(|w| w == name);
            if !elsewhere && !shipping(text, false).iter().any(|l| names(l.1)) {
                uncalled.push(format!("{path}: nothing calls pub fn {name}"));
            }
        }
    }
    (examined, uncalled)
}

/// Where the bracket block opening at byte `open` ends (one past its closing
/// bracket), and its body's top-level comma-separated items. Brackets and
/// commas inside string literals do not count.
fn block(text: &str, open: usize) -> (usize, Vec<&str>) {
    let (mut depth, mut quoted, mut escaped) = (0, false, false);
    let (mut items, mut start) = (Vec::new(), open + 1);
    for (i, c) in text.bytes().enumerate().skip(open) {
        let skip = escaped || (quoted && c != b'"' && c != b'\\');
        escaped = quoted && !escaped && c == b'\\';
        match c {
            _ if skip || escaped => {}
            b'"' => quoted = !quoted,
            b'{' | b'(' | b'[' => depth += 1,
            b'}' | b')' | b']' | b',' if depth == 1 => {
                items.push(&text[start..i]);
                start = i + 1;
                if c != b',' {
                    return (i + 1, items);
                }
            }
            b'}' | b')' | b']' => depth -= 1,
            _ => {}
        }
    }
    items.push(&text[start.min(text.len())..]);
    (text.len(), items)
}

/// Nothing is configurable that nothing configures: each pub field of each
/// `pub struct *Config` in crates/{core,stream,fleetd}/src is written outside
/// its `Default` impl, in the shipping non-comment code of src, crates/*/src,
/// examples or benchmark, by a struct-literal field (shorthand included) or a
/// `.field =`. No file in src or crates/*/src names `serde`, whose facade
/// expands to nothing. Returns the `*Config`s found and the violations.
fn knob_census(tree: &Tree) -> (Vec<String>, Vec<String>) {
    let mut bad = grep(tree, &sources, ALL, &any("serde"));
    let code = |text: &str| {
        let lines = shipping(text, false).into_iter().map(|l| l.1);
        lines.collect::<Vec<_>>().join("\n")
    };
    let mut knobs: Vec<(String, &str, Vec<String>)> = Vec::new();
    let defining = "crates/core/src/*.rs|crates/stream/src/*.rs|crates/fleetd/src/*.rs";
    for (path, text) in files(tree, &|p| glob(defining, p)) {
        let text = code(text);
        for (i, head) in text.match_indices("pub struct ") {
            let name = ident(&text[i + head.len()..]);
            let open = i + head.len() + name.len() + 1;
            if name.len() > 6 && name.ends_with("Config") && text[open - 1..].starts_with(" {") {
                let lines = text[open..block(&text, open).0].lines();
                let pubs = lines.filter_map(|l| l.trim_start().strip_prefix("pub "));
                let named = |f: &&str| !ident(f).is_empty() && f[ident(f).len()..].starts_with(':');
                let fields = pubs.filter(named).map(|f| ident(f).to_string());
                knobs.retain(|k| k.0 != name);
                knobs.push((name.to_string(), path, fields.collect()));
            }
        }
    }
    let (mut written, mut assigned) = (HashSet::new(), HashSet::new());
    let writers = "src/*.rs|crates/*/src/*.rs|examples/*.rs|benchmark/*.rs";
    for (_, text) in files(tree, &|p| glob(writers, p)) {
        let mut text = code(text);
        for head in knobs.iter().map(|k| format!("impl Default for {} {{", k.0)) {
            let starts: Vec<usize> = text.match_indices(&head).map(|(i, _)| i).collect();
            for i in starts.into_iter().rev() {
                text.replace_range(i..block(&text, i + head.len() - 1).0, "");
            }
        }
        for (name, ..) in &knobs {
            for (i, _) in text.match_indices(name.as_str()) {
                let open = text.len() - text[i + name.len()..].trim_start().len();
                let before = text[..i].trim_end();
                let typed = "->|struct|impl|for".split('|').any(|k| before.ends_with(k));
                if text[..i].ends_with(is_ident) || !text[open..].starts_with('{') || typed {
                    continue;
                }
                for item in block(&text, open).1.iter().map(|item| item.trim_start()) {
                    let rest = item[ident(item).len()..].trim_start();
                    if !ident(item).is_empty() && (rest.is_empty() || rest.starts_with(':')) {
                        written.insert((name.clone(), ident(item).to_string()));
                    }
                }
            }
        }
        for (i, _) in text.match_indices('.') {
            let field = ident(&text[i + 1..]);
            let rest = text[i + 1 + field.len()..].trim_start();
            if !field.is_empty() && rest.starts_with('=') && !rest[1..].starts_with('=') {
                assigned.insert(field.to_string());
            }
        }
    }
    knobs.sort();
    for (name, path, fields) in &knobs {
        let unset = fields.iter().filter(|f| !assigned.contains(*f));
        for field in unset.filter(|f| !written.contains(&(name.clone(), f.to_string()))) {
            let only = "is set only by its Default impl and tests";
            bad.push(format!("{path}: {name}::{field} {only}"));
        }
    }
    (knobs.into_iter().map(|k| k.0).collect(), bad)
}

/// Retired harness names stay retired: outside hpc-sysbench (`benchmark/`)
/// and the history files (the root-level change log and plans, every root
/// markdown file but the documents listed here) nothing names the retired
/// `hpc-bench` binary, its results, the criterion stand-in, bench targets or
/// the pool-width variable only they set, and neither bench targets nor the
/// stand-in exist.
fn retired_names(tree: &Tree) -> Vec<String> {
    let retired = "BENCH_0008|BENCH_0010|--bin hpc-bench|perf::run_matrix|criterion|\
                   cargo bench|[[bench]]|bench = false|HPC_INGEST_THREADS";
    let docs = "README.md DESIGN.md CONTRIBUTING.md EXPERIMENTS.md PAPER.md PAPERS.md SNIPPETS.md";
    let doc = |p: &str| docs.split(' ').any(|d| d == p);
    let history = |p: &str| !p.contains('/') && p.ends_with(".md") && !doc(p);
    let scope = |p: &str| !history(p) && !under("benchmark", p);
    let mut bad = grep(tree, &scope, ALL, &any(retired));
    let gone = files(tree, &|p| under("crates/bench/benches|vendor/criterion", p));
    bad.extend(gone.iter().map(|(p, _)| format!("{p}: retired bench tree")));
    bad
}

/// One feed loop, one query request: `hpc_stream::drive` owns the only loop
/// feeding a `StreamEngine` and the only stdin reader, the stream crate one
/// block reader and one run merge, `query::Request` the query vocabulary,
/// `cli::Flags` the command line; the job scan and the per-alert failure
/// lookup that the sweep and `prediction::Scorer` replaced are test oracles.
fn feed_loop(tree: &Tree) -> Vec<String> {
    let stream = |p: &str| under("crates/stream/src", p);
    let fronts = |p: &str| under("src/bin|crates/fleetd", p);
    let args = |p: &str| sources(p) && p != "crates/telemetry/src/cli.rs";
    let jobs = |p: &str| glob("crates/core/src/*.rs|crates/sched/src/*.rs", p);
    let crates = |p: &str| glob("crates/*/src/*", p);
    let scorers = "crates/core/src/prediction.rs|crates/core/src/lead_time.rs";
    let merge = any("read_to_end|BinaryHeap|OrdEvent|feed_time_aligned");
    let lines = any("stdin.lock().lines()|stdin().lock().lines()");
    let bans: [(Pred, bool, Pred); 8] = [
        (&stream, ALL, &merge),
        (&sources, ALL, &lines),
        (&fronts, ALL, &any("EventClass::from_key(|HistKey::parse(")),
        (&args, ALL, &any("env::args(|env::args_os(")),
        (&|p| under("crates/bench", p), ALL, &any("split_timestamp(")),
        (&jobs, SHIPPING, &|l| l.contains(".find(|j| j.active_on(")),
        (&crates, ALL, &any("LeadTracker|LeadSink|MAX_LEADS")),
        (&|p| glob(scorers, p), SHIPPING, &any("first_failure_in(")),
    ];
    let ban = |b: &(Pred, bool, Pred)| grep(tree, b.0, b.1, b.2);
    let mut bad: Vec<_> = bans.iter().flat_map(ban).collect();
    let drive = "crates/stream/src/drive.rs";
    let follow = "crates/stream/src/follow.rs";
    let diagnose = "src/bin/hpc-diagnose.rs";
    for (needle, also) in [("poll_into(", follow), ("stdin()", diagnose)] {
        let found = grep(tree, &|p| sources(p) && p != also, ALL, &any(needle));
        if found.is_empty() || found.iter().any(|l| !l.starts_with(&format!("{drive}:"))) {
            bad.push(format!("only {drive} may use `{needle}`: {found:#?}"));
        }
    }
    bad
}

/// One truth matcher, one cause map: `hpc_bench::truth` owns the only rule
/// pairing an injected failure with a detection, whose tell is `.abs_diff(`
/// (`SimTime` defines it), and the only `TrueRootCause -> InferredCause` map.
fn truth_matcher(tree: &Tree) -> Vec<String> {
    let truth = "crates/bench/src/truth.rs";
    let dirs = "crates|src|tests|examples";
    let near = |p: &str| under(dirs, p) && p != truth && p != "crates/logs/src/time.rs";
    let mut bad = grep(tree, &near, ALL, &any(".abs_diff("));
    let arms = |p: &str| glob("*.rs", p) && p != truth;
    bad.extend(grep(tree, &arms, ALL, &cause_arm));
    bad
}

/// `line` holds a match arm `TrueRootCause::X => InferredCause::`.
fn cause_arm(line: &str) -> bool {
    line.match_indices("TrueRootCause::").any(|(i, head)| {
        let variant = ident(&line[i + head.len()..]);
        let rest = line[i + head.len() + variant.len()..].trim_start_matches(' ');
        let arm = rest.strip_prefix("=>").map(|r| r.trim_start_matches(' '));
        !variant.is_empty() && arm.is_some_and(|r| r.starts_with("InferredCause::"))
    })
}

/// No snapshot body is rendered per request: each body fleetd serves from an
/// immutable `SystemSnapshot` is rendered once, by the cache fill in
/// snapshot.rs, whose five render calls are the renderers' only callers.
fn snapshot_renders(tree: &Tree) -> Vec<String> {
    let snapshot = "crates/fleetd/src/snapshot.rs";
    let render = any("summary_json(|window_json(|alerts_json(|failures_json(|render_report(");
    let others = |p: &str| under("src|crates", p) && p != snapshot;
    let mut bad = grep(tree, &others, ALL, &render);
    let fill = |l: &str| render(l) && !l.contains("fn ");
    let fills = grep(tree, &|p| p == snapshot, SHIPPING, &fill);
    if fills.len() != 5 {
        bad.push(format!("{snapshot}: not 5 fills: {fills:#?}"));
    }
    bad
}

/// Tier-1 proves the workspace: each `crates/*` package is a default member
/// of the root workspace, so a bare `cargo test` at the root runs its tests.
fn default_members(tree: &Tree) -> Vec<String> {
    let root = files(tree, &|p| p == "Cargo.toml");
    let manifest = root.first().map_or("", |f| f.1);
    let line = manifest.lines().find(|l| l.starts_with("default-members"));
    let open = line.and_then(|l| Some(manifest.find(l)? + l.find('[')?));
    let items = open.map_or(Vec::new(), |open| block(manifest, open).1);
    let members: Vec<&str> = items.iter().filter_map(|i| i.split('"').nth(1)).collect();
    let crates = files(tree, &|p| {
        glob("crates/*/Cargo.toml", p) && p.matches('/').count() == 2
    });
    let outside = crates.into_iter().filter(|(p, _)| {
        let dir = p.trim_end_matches("/Cargo.toml");
        !members.iter().any(|m| glob(m, dir))
    });
    let why = "is not a default member of the root workspace";
    outside.map(|(p, _)| format!("{p}: {why}")).collect()
}

/// The package's own tree, walked once for every test that reads it.
fn tree() -> &'static Tree {
    static TREE: OnceLock<Tree> = OnceLock::new();
    TREE.get_or_init(|| walk(Path::new(env!("CARGO_MANIFEST_DIR"))))
}

fn assert_clean(rule: &str, bad: &[String]) {
    assert!(
        bad.is_empty(),
        "{rule}: {} violations\n{}",
        bad.len(),
        bad.join("\n")
    );
}

#[test]
fn nothing_ships_that_nothing_calls() {
    let (examined, uncalled) = reference_census(tree());
    assert_clean("Nothing ships that nothing calls", &uncalled);
    assert!(examined > 0, "the census examined no pub fn");
}

#[test]
fn nothing_is_configurable_that_nothing_configures() {
    let (knobs, bad) = knob_census(tree());
    assert_clean("Nothing is configurable that nothing configures", &bad);
    for name in [
        "DiagnosisConfig",
        "StreamConfig",
        "ServerConfig",
        "ShardConfig",
    ] {
        assert!(
            knobs.iter().any(|k| k == name),
            "the knob census did not find {name}: {knobs:?}"
        );
    }
}

#[test]
fn retired_harness_names_stay_retired() {
    assert_clean("Retired harness names stay retired", &retired_names(tree()));
}

#[test]
fn one_feed_loop_one_query_request() {
    assert_clean("One feed loop, one query request", &feed_loop(tree()));
    let scope = |p: &str| sources(p) && p != "crates/stream/src/follow.rs";
    let callers = files(tree(), &scope).into_iter();
    let callers: Vec<_> = callers.filter(|f| f.1.contains("poll_into(")).collect();
    assert_eq!(callers.len(), 1);
    assert_eq!(callers[0].0, "crates/stream/src/drive.rs");
}

#[test]
fn one_truth_matcher_one_cause_map() {
    assert_clean("One truth matcher, one cause map", &truth_matcher(tree()));
}

#[test]
fn no_snapshot_body_is_rendered_per_request() {
    // The rule itself insists on exactly five fill calls.
    assert_clean(
        "No snapshot body is rendered per request",
        &snapshot_renders(tree()),
    );
}

#[test]
fn every_project_crate_is_a_default_member() {
    assert_clean(
        "Every project crate is a default member",
        &default_members(tree()),
    );
}

// Planted violations: each rule reports every plant and passes the clean
// form; where a rule reads only shipping code, the clean form holds the same
// text inside a `#[cfg(test)]` module.

fn tree_of(files: &[(&str, &str)]) -> Tree {
    let owned = files.iter().map(|(p, t)| (p.to_string(), t.to_string()));
    owned.collect()
}

/// `base` with `path` holding `text`, replaced or added.
fn plant(base: &Tree, (path, text): (&str, &str)) -> Tree {
    let mut tree: Tree = base.iter().filter(|(p, _)| p != path).cloned().collect();
    tree.push((path.to_string(), text.to_string()));
    tree
}

/// `rule` passes `base` and, with each of `plants` added, reports only
/// violations that name the planted file.
fn assert_reported(rule: fn(&Tree) -> Vec<String>, base: &Tree, plants: &[(&str, &str)]) {
    assert_clean("the clean fixture", &rule(base));
    for planted in plants {
        let bad = rule(&plant(base, *planted));
        assert!(!bad.is_empty(), "{planted:?} passed");
        let named = bad.iter().all(|b| b.contains(planted.0));
        assert!(named, "{planted:?} reported as {bad:#?}");
    }
}

#[test]
fn the_walker_reads_only_anchored_plain_gitignore_paths() {
    let paths = ignored("/target\n# build output\n\n/benchmark/out/\n");
    assert_eq!(paths, ["target", "benchmark/out"]);
    for line in ["*.log", "target", "/bench_*", "!/keep", "/"] {
        let refused = std::panic::catch_unwind(|| ignored(line));
        assert!(refused.is_err(), "{line:?} was read as a plain path");
    }
}

#[test]
fn shipping_code_ends_at_the_test_module() {
    let text = "fn a() {}\n// note\n#[cfg(test)] // tests\nmod tests {}\n";
    assert_eq!(shipping(text, true), [(1, "fn a() {}"), (2, "// note")]);
    assert_eq!(shipping(text, false), [(1, "fn a() {}")]);
    assert_eq!(shipping("fn a() {}\n    #[cfg(test)]\n", true).len(), 2);
}

#[test]
fn census_reports_an_uncalled_pub_fn() {
    let lib = "pub fn called() {}\n\
               pub const fn local() {}\n\
               fn f() { local() }\n\
               pub fn uncalled() {}\n\
               // uncalled()\n\
               #[cfg(test)]\n\
               mod t {\n    pub fn helper() {}\n    fn g() { super::uncalled() }\n}\n";
    let caller = "fn main() { a::called() }\n// a::uncalled()\npub use a::uncalled;\n";
    let base = tree_of(&[("crates/a/src/lib.rs", lib), ("tests/t.rs", caller)]);
    let (examined, bad) = reference_census(&base);
    assert_eq!(examined, 3, "a pub fn in a test module is not examined");
    assert_eq!(bad, ["crates/a/src/lib.rs: nothing calls pub fn uncalled"]);
    for caller in [
        ("examples/e.rs", "fn main() { a::uncalled(); }"),
        ("benchmark/src/m.rs", "use a::{called, uncalled};"),
    ] {
        let (_, bad) = reference_census(&plant(&base, caller));
        assert!(bad.is_empty(), "{caller:?} is a caller");
    }
}

#[test]
fn census_does_not_count_this_file_as_a_caller() {
    let lib = ("src/lib.rs", "pub fn poll_into() {}\n");
    let fixture = "const PLANT: &str = \"poll_into(\";\n";
    let bad = reference_census(&tree_of(&[lib, (SELF, fixture)])).1;
    assert_eq!(bad, ["src/lib.rs: nothing calls pub fn poll_into"]);
    let elsewhere = tree_of(&[lib, ("tests/other.rs", fixture)]);
    assert!(reference_census(&elsewhere).1.is_empty());
}

#[test]
fn knob_census_reports_a_field_only_its_default_writes_and_serde() {
    let config = "pub struct ShardConfig {\n    pub set: u32,\n    pub unset: u32,\n}\n\
                  impl Default for ShardConfig {\n    fn default() -> Self {\n        \
                  ShardConfig { set: 1, unset: 2 }\n    }\n}\n\
                  // c.unset = 3;\n\
                  #[cfg(test)]\n\
                  mod t {\n    pub struct TestConfig {\n        pub never: u32,\n    }\n    \
                  fn f(c: &mut super::ShardConfig) {\n        c.unset = 3;\n    }\n}\n";
    let user = "fn main() {\n    let set = 4;\n    \
                let c = ShardConfig { set, ..Default::default() };\n}\n";
    let base = tree_of(&[
        ("crates/fleetd/src/shard.rs", config),
        ("src/bin/b.rs", user),
    ]);
    let (knobs, bad) = knob_census(&base);
    assert_eq!(knobs, ["ShardConfig"]);
    let unset =
        "crates/fleetd/src/shard.rs: ShardConfig::unset is set only by its Default impl and tests";
    assert_eq!(bad, [unset]);
    let assigns = "fn main() {\n    let mut c = ShardConfig::default();\n    c.unset = 5;\n}\n";
    let literal = "fn m() -> ShardConfig {\n    ShardConfig {\n        set: 1,\n        \
                   unset: f(1, \"}, x: 2\"),\n    }\n}\n";
    for writer in [("examples/e.rs", assigns), ("benchmark/src/m.rs", literal)] {
        assert!(
            knob_census(&plant(&base, writer)).1.is_empty(),
            "{writer:?} writes"
        );
    }
    let clean = plant(&base, ("examples/e.rs", assigns));
    let serde = "#[cfg(test)]\nmod t {\n    use serde::Serialize;\n}\n";
    let bad = knob_census(&plant(&clean, ("crates/core/src/x.rs", serde))).1;
    assert_eq!(bad, ["crates/core/src/x.rs:3:     use serde::Serialize;"]);
}

#[test]
fn retired_names_are_reported() {
    let base = tree_of(&[
        ("README.md", "Measure with hpc-sysbench.\n"),
        ("CHANGES.md", "Retired the criterion stand-in.\n"),
        ("benchmark/README.md", "Replaces cargo bench.\n"),
        (".github/workflows/ci.yml", "run: cargo test\n"),
    ]);
    let plants = [
        ("docs/PERF.md", "Run the criterion suite.\n"),
        (
            "crates/logs/src/pool.rs",
            "const VAR: &str = \"HPC_INGEST_THREADS\";\n",
        ),
        ("crates/bench/benches/ingest.rs", "fn main() {}\n"),
        (
            ".github/workflows/ci.yml",
            "run: cargo build --bin hpc-bench\n",
        ),
    ];
    assert_reported(retired_names, &base, &plants);
}

#[test]
fn feed_loop_violations_are_reported() {
    let oracle = "fn f() {}\n#[cfg(test)]\nmod t {\n    \
                  fn oracle() { jobs.find(|j| j.active_on(n, t)) }\n}\n";
    let lookup = "fn f() {}\n#[cfg(test)]\nmod t {\n    fn g() { first_failure_in(x) }\n}\n";
    let base = tree_of(&[
        (
            "crates/stream/src/drive.rs",
            "fn pump() {\n    f.poll_into(&mut b);\n    stdin().lock();\n}\n",
        ),
        (
            "crates/stream/src/follow.rs",
            "pub fn poll_into(&mut self) {}\n",
        ),
        (
            "crates/stream/tests/drive.rs",
            "fn t() { follow.poll_into(&mut b); }\n",
        ),
        (
            "src/bin/hpc-diagnose.rs",
            "fn main() {\n    lossy_lines(io::stdin().lock());\n}\n",
        ),
        (
            "crates/telemetry/src/cli.rs",
            "fn flags() {\n    env::args_os();\n}\n",
        ),
        ("crates/core/src/jobs.rs", oracle),
        ("crates/core/src/prediction.rs", lookup),
    ]);
    let lines = "fn pump() {\n    f.poll_into(&mut b);\n    stdin().lock().lines();\n}\n";
    let scan = "fn f() { jobs.find(|j| j.active_on(n, t)) }\n#[cfg(test)]\n";
    let plants = [
        (
            "crates/stream/src/follow.rs",
            "fn read(f: File) { f.read_to_end(&mut v); }\n",
        ),
        (
            "crates/fleetd/src/shard.rs",
            "fn tick() { follow.poll_into(&mut b); }\n",
        ),
        ("crates/stream/src/drive.rs", lines),
        (
            "src/bin/hpc-query.rs",
            "fn main() { EventClass::from_key(k); }\n",
        ),
        (
            "src/bin/hpc-simulate.rs",
            "fn main() { std::env::args().nth(1); }\n",
        ),
        (
            "crates/bench/tests/x.rs",
            "fn t() { split_timestamp(l); }\n",
        ),
        ("crates/sched/src/job.rs", scan),
        ("crates/stream/src/engine.rs", "struct LeadTracker;\n"),
        (
            "crates/core/src/prediction.rs",
            "fn f() { first_failure_in(x) }\n#[cfg(test)]\n",
        ),
    ];
    assert_reported(feed_loop, &base, &plants);
}

#[test]
fn truth_matcher_violations_are_reported() {
    let truth = "fn near(a: u64, b: u64) -> bool {\n    a.abs_diff(b) <= W\n}\n\
                 fn expected_cause(t: TrueRootCause) {\n    match t {\n        \
                 TrueRootCause::Oom => InferredCause::Memory,\n    }\n}\n";
    let base = tree_of(&[
        ("crates/bench/src/truth.rs", truth),
        (
            "crates/logs/src/time.rs",
            "pub fn abs_diff(self, o: SimTime) { self.0.abs_diff(o.0) }\n",
        ),
        (
            "docs/SCORING.md",
            "`TrueRootCause::Oom => InferredCause::Memory` and `.abs_diff(`\n",
        ),
    ]);
    let matcher = "fn t() {\n    assert!(f.time.abs_diff(r.time) < 60_000);\n}\n";
    let in_tests = "fn f() {}\n#[cfg(test)]\nmod t {\n    fn near() { a.abs_diff(b); }\n}\n";
    let arm = "fn t() {\n    match c {\n        \
               TrueRootCause::Lustre  =>  InferredCause::FileSystem,\n    }\n}\n";
    let plants = [
        ("tests/end_to_end.rs", matcher),
        ("crates/bench/src/validation.rs", in_tests),
        ("crates/bench/tests/accuracy.rs", arm),
    ];
    assert_reported(truth_matcher, &base, &plants);
}

#[test]
fn snapshot_render_violations_are_reported() {
    let fills = "    Body::Summary => self.summary_json(),\n    \
                 Body::Window => self.window_json(),\n    \
                 Body::Alerts => self.alerts_json(),\n    \
                 Body::Failures => self.failures_json(),\n    \
                 Body::Report => render_report(self),\n";
    let defs = "fn summary_json(&self) {}\nfn render_report(s: &S) {}\n";
    let tests = "#[cfg(test)]\nmod t {\n    fn t() { render_report(&s); s.summary_json(); }\n}\n";
    let snapshot = format!("{fills}{defs}{tests}");
    let sixth = format!("{fills}    let again = render_report(self);\n{defs}{tests}");
    let base = tree_of(&[
        ("crates/fleetd/src/snapshot.rs", &snapshot),
        ("crates/fleetd/src/server.rs", "fn route() {}\n"),
    ]);
    let plants = [
        (
            "crates/fleetd/src/server.rs",
            "fn route(s: &S) { s.summary_json(); }\n",
        ),
        ("crates/fleetd/src/snapshot.rs", &sixth),
    ];
    assert_reported(snapshot_renders, &base, &plants);
}

#[test]
fn a_crate_outside_the_default_members_is_reported() {
    let root = "[workspace]\nmembers = [\"crates/*\"]\n\
                default-members = [\n    \".\",\n    \"crates/core\", # the library\n]\n";
    let base = tree_of(&[
        ("Cargo.toml", root),
        ("crates/core/Cargo.toml", "[package]\n"),
        ("crates/core/tests/fixture/Cargo.toml", "[package]\n"),
        ("vendor/rand/Cargo.toml", "[package]\n"),
    ]);
    let plants = [("crates/stats/Cargo.toml", "[package]\n")];
    assert_reported(default_members, &base, &plants);
    let unlisted = plant(
        &base,
        ("Cargo.toml", "[workspace]\nmembers = [\"crates/*\"]\n"),
    );
    assert_eq!(
        default_members(&unlisted),
        ["crates/core/Cargo.toml: is not a default member of the root workspace"]
    );
    let glob = plant(
        &base,
        ("Cargo.toml", "default-members = [\".\", \"crates/*\"]\n"),
    );
    let planted = plant(&glob, plants[0]);
    assert!(default_members(&planted).is_empty());
}

//! Startup and exit plumbing every binary shares: walk the command line
//! under the exit-2 contract, probe an output path before the work, print
//! the telemetry epilogue after it.

use std::io::ErrorKind;
use std::process::exit;
use std::str::FromStr;

use crate::recorder::{profile_table, summary_table};

/// Cursor over the process arguments that owns the bad-command-line
/// contract: the binary's usage line on stderr, exit 2, never a panic —
/// an argument that is not valid Unicode included.
/// Each binary keeps its own usage text and its own `match` on the flags.
pub struct Flags {
    usage: &'static str,
    args: std::iter::Skip<std::env::ArgsOs>,
}

impl Flags {
    /// Cursor over this process's arguments; `usage` is printed whole.
    pub fn new(usage: &'static str) -> Flags {
        Flags {
            usage,
            args: std::env::args_os().skip(1),
        }
    }

    /// Prints the usage line and exits 2.
    pub fn usage(&self) -> ! {
        eprintln!("{}", self.usage);
        exit(2)
    }

    /// Prints why the command line is refused, then the usage line, and
    /// exits 2.
    pub fn refuse(&self, reason: &str) -> ! {
        eprintln!("{reason}");
        self.usage()
    }

    /// The value of the flag just read; missing is a usage error.
    pub fn value(&mut self) -> String {
        self.next().unwrap_or_else(|| self.usage())
    }

    /// `text` as a `T`; unparsable is a usage error.
    pub fn parse<T: FromStr>(&self, text: &str) -> T {
        text.parse().unwrap_or_else(|_| self.usage())
    }

    /// The value of the flag just read, as a `T`.
    pub fn parsed<T: FromStr>(&mut self) -> T {
        let value = self.value();
        self.parse(&value)
    }
}

impl Iterator for Flags {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        let arg = self.args.next()?;
        Some(arg.into_string().unwrap_or_else(|_| self.usage()))
    }
}

/// Fails fast — one line, exit 1 — if `path` cannot be created/appended,
/// so an unwritable output flag is reported before any work is done
/// rather than as a lost artefact (or an exit-time error) after it. A file
/// the probe had to create is removed again, so a run that fails later
/// leaves no empty output behind; one that already existed is untouched.
pub fn probe_writable(path: &str) {
    let mut options = std::fs::OpenOptions::new();
    options.append(true);
    let probed = match options.create_new(true).open(path) {
        Ok(_) => std::fs::remove_file(path),
        Err(e) if e.kind() == ErrorKind::AlreadyExists => {
            options.create_new(false).open(path).map(drop)
        }
        Err(e) => Err(e),
    };
    if let Err(e) = probed {
        eprintln!("cannot write {path}: {e}");
        exit(1);
    }
}

/// The exit epilogue: the per-stage table and (when spans ran) the span
/// profile on stderr, then the full registry as JSON at `json_path`.
/// Exits 1 if that write fails.
pub fn exit_report(json_path: Option<&str>) {
    let snapshot = crate::snapshot();
    eprintln!("--- telemetry ---");
    eprint!("{}", summary_table(&snapshot));
    let profile = profile_table(&snapshot);
    if !profile.is_empty() {
        eprintln!("--- profile ---");
        eprint!("{profile}");
    }
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(path, snapshot.to_json()) {
            eprintln!("failed to write telemetry JSON to {path}: {e}");
            exit(1);
        }
        eprintln!("telemetry JSON written to {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_keeps_an_existing_file_and_removes_its_own() {
        let dir = std::env::temp_dir().join(format!("hpc-telemetry-probe-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let existing = dir.join("existing.json");
        std::fs::write(&existing, b"{\"kept\": true}").unwrap();
        probe_writable(existing.to_str().unwrap());
        assert_eq!(std::fs::read(&existing).unwrap(), b"{\"kept\": true}");
        let fresh = dir.join("fresh.json");
        probe_writable(fresh.to_str().unwrap());
        assert!(!fresh.exists(), "the probe left its own file behind");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

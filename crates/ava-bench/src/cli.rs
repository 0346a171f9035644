//! Shared command-line plumbing for the harness binaries.
//!
//! Every binary parses its arguments through one [`BenchArgs`] pass: the
//! shared flags — `--json <path>`, `--threads <n>`, `--store <dir>` and
//! `--resume` — are recognised in one place, and each binary pulls its own
//! extensions (`--spec`, `--app`, `--mode`, ...) out of the remainder with
//! [`BenchArgs::take_value`] before calling [`BenchArgs::finish`] to reject
//! anything left over.
//!
//! The shared flags mean the same thing everywhere:
//!
//! * `--json <path>` — write the machine-readable form of the artefact to
//!   `<path>` (the human-readable tables keep going to stdout);
//! * `--threads <n>` — cap the sweep at `n` worker threads (they claim
//!   points most-expensive first through one shared cursor);
//! * `--store <dir>` — attach the content-addressed result store at `<dir>`
//!   (created if missing): points already stored are served from disk, fresh
//!   results are checkpointed as they finish;
//! * `--resume` — assert that `--store` points at an *existing* checkpoint
//!   directory (e.g. from a killed run) instead of silently starting cold.
//!
//! Binaries that do not run sweeps reject the execution flags with a clear
//! message rather than ignoring them.

use std::path::Path;
use std::process::ExitCode;

use ava_sim::{Json, ResultStore, SweepRunner};

/// The parsed shared flags plus each binary's unparsed extension arguments.
#[derive(Debug)]
pub struct BenchArgs {
    /// `--json <path>`: where to write the machine-readable artefact.
    pub json: Option<String>,
    /// `--threads <n>`: worker-thread cap for the sweep.
    pub threads: Option<usize>,
    /// `--store <dir>`: the opened result store.
    pub store: Option<ResultStore>,
    /// `--resume`: the user expects the store to hold a prior checkpoint.
    pub resume: bool,
    rest: Vec<String>,
}

impl BenchArgs {
    /// Parses the process arguments: shared flags are consumed here,
    /// everything else is kept for [`BenchArgs::take_value`] /
    /// [`BenchArgs::take_switch`].
    ///
    /// # Errors
    ///
    /// Returns a diagnostic when a shared flag is malformed, when
    /// `--resume` is given without `--store` (or the store directory does
    /// not exist yet — there is nothing to resume), or when the store
    /// directory cannot be created.
    pub fn parse() -> Result<Self, String> {
        Self::from_args(std::env::args().skip(1).collect())
    }

    /// Parses an explicit argument vector (the process arguments minus the
    /// program name). Public so in-process tests and the manifest driver can
    /// exercise exactly the binaries' argument path.
    ///
    /// # Errors
    ///
    /// As for [`BenchArgs::parse`].
    pub fn from_args(args: Vec<String>) -> Result<Self, String> {
        let mut json = None;
        let mut threads = None;
        let mut store_dir: Option<String> = None;
        let mut resume = false;
        let mut rest = Vec::new();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--json" => {
                    json = Some(it.next().ok_or("--json requires a path argument")?);
                }
                "--threads" => {
                    let v = it.next().ok_or("--threads requires a value")?;
                    threads = Some(
                        v.parse()
                            .map_err(|_| format!("invalid --threads value: {v}"))?,
                    );
                }
                "--store" => {
                    store_dir = Some(it.next().ok_or("--store requires a directory argument")?);
                }
                "--resume" => resume = true,
                _ => rest.push(arg),
            }
        }
        if resume && store_dir.is_none() {
            return Err("--resume requires --store <dir>".to_string());
        }
        let store = match store_dir {
            Some(dir) => {
                if resume && !Path::new(&dir).is_dir() {
                    return Err(format!(
                        "--resume: store directory {dir} does not exist — nothing to resume"
                    ));
                }
                Some(ResultStore::open(dir)?)
            }
            None => None,
        };
        Ok(Self {
            json,
            threads,
            store,
            resume,
            rest,
        })
    }

    /// Removes the binary-specific `flag <value>` pair from the remaining
    /// arguments and returns the value, if the flag is present.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic when the flag is present without a value.
    pub fn take_value(&mut self, flag: &str) -> Result<Option<String>, String> {
        let Some(pos) = self.rest.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        if pos + 1 >= self.rest.len() {
            return Err(format!("{flag} requires a value"));
        }
        let value = self.rest.remove(pos + 1);
        self.rest.remove(pos);
        Ok(Some(value))
    }

    /// Removes the binary-specific boolean `flag` from the remaining
    /// arguments, returning whether it was present.
    pub fn take_switch(&mut self, flag: &str) -> bool {
        match self.rest.iter().position(|a| a == flag) {
            Some(pos) => {
                self.rest.remove(pos);
                true
            }
            None => false,
        }
    }

    /// Rejects any argument no extension consumed. Call after every
    /// [`BenchArgs::take_value`] / [`BenchArgs::take_switch`].
    ///
    /// # Errors
    ///
    /// Returns a diagnostic naming the first unrecognised argument.
    pub fn finish(&self) -> Result<(), String> {
        match self.rest.first() {
            Some(other) => Err(format!("unrecognised argument: {other}")),
            None => Ok(()),
        }
    }

    /// For binaries that never run a sweep: rejects `--threads`, `--store`
    /// and `--resume` with `reason` rather than silently ignoring them.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic naming the offending flag and `reason`.
    pub fn reject_execution_flags(&self, reason: &str) -> Result<(), String> {
        if self.threads.is_some() {
            return Err(format!("--threads does not apply: {reason}"));
        }
        if self.store.is_some() || self.resume {
            return Err(format!("--store/--resume do not apply: {reason}"));
        }
        Ok(())
    }

    /// For binaries with their own output scheme: rejects `--json` with
    /// `reason`.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic containing `reason`.
    pub fn reject_json(&self, reason: &str) -> Result<(), String> {
        match self.json {
            Some(_) => Err(format!("--json does not apply: {reason}")),
            None => Ok(()),
        }
    }

    /// Applies the shared execution flags (`--threads`, `--store`) to a
    /// sweep runner.
    #[must_use]
    pub fn configure<'a>(&'a self, mut runner: SweepRunner<'a>) -> SweepRunner<'a> {
        if let Some(n) = self.threads {
            runner = runner.threads(n);
        }
        if let Some(store) = &self.store {
            runner = runner.store(store);
        }
        runner
    }

    /// Fills in execution options from a manifest's `execution` block.
    /// CLI flags win field by field: a field already set on `self` keeps
    /// its value, an unset one takes the manifest's. The merged result is
    /// re-checked against the same cross-flag constraints as
    /// [`BenchArgs::parse`].
    ///
    /// # Errors
    ///
    /// Returns a diagnostic when a manifest store directory cannot be
    /// opened, when `resume` points at a store directory that does not
    /// exist yet, or when `resume` is left without a store.
    pub fn apply_execution(&mut self, exec: &crate::spec::ExecutionSpec) -> Result<(), String> {
        if self.threads.is_none() {
            self.threads = exec.threads;
        }
        self.resume = self.resume || exec.resume;
        if self.store.is_none() {
            if let Some(dir) = &exec.store {
                if self.resume && !Path::new(dir).is_dir() {
                    return Err(format!(
                        "resume: store directory {dir} does not exist — nothing to resume"
                    ));
                }
                self.store = Some(ResultStore::open(dir.clone())?);
            }
        }
        if self.resume && self.store.is_none() {
            return Err("--resume requires --store <dir>".to_string());
        }
        Ok(())
    }
}

/// Prints `message` plus the usage line and returns the conventional
/// bad-invocation exit code. Binaries funnel every parse error through this.
#[must_use]
pub fn usage_error(usage: &str, message: &str) -> ExitCode {
    eprintln!("{message}");
    eprintln!("usage: {usage}");
    ExitCode::from(2)
}

/// Writes `value` to `path` as a single-line JSON document (with a trailing
/// newline, so the files are friendly to line-oriented tools).
///
/// # Errors
///
/// Returns the I/O error message on failure.
pub fn write_json(path: &str, value: &Json) -> Result<(), String> {
    std::fs::write(path, format!("{value}\n"))
        .map_err(|e| format!("cannot write JSON report to {path}: {e}"))
}

/// Writes the JSON report when a path was requested, printing a
/// confirmation line to stderr; exits with failure on I/O errors. The
/// document is built lazily so the common no-`--json` invocation skips the
/// (potentially large) tree construction entirely.
#[must_use]
pub fn emit_json(path: Option<&str>, build: impl FnOnce() -> Json) -> ExitCode {
    let Some(path) = path else {
        return ExitCode::SUCCESS;
    };
    match write_json(path, &build()) {
        Ok(()) => {
            eprintln!("wrote JSON report to {path}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ava_sim::json::object;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn shared_flags_are_extracted_and_the_rest_kept_in_order() {
        let args = BenchArgs::from_args(argv(&[
            "--app",
            "axpy",
            "--json",
            "out.json",
            "--threads",
            "3",
            "--chart",
            "perf",
        ]))
        .unwrap();
        assert_eq!(args.json.as_deref(), Some("out.json"));
        assert_eq!(args.threads, Some(3));
        assert!(args.store.is_none());
        assert!(!args.resume);
        assert_eq!(args.rest, argv(&["--app", "axpy", "--chart", "perf"]));
    }

    #[test]
    fn shared_flags_without_values_are_errors() {
        assert!(BenchArgs::from_args(argv(&["--json"])).is_err());
        assert!(BenchArgs::from_args(argv(&["--threads"])).is_err());
        assert!(BenchArgs::from_args(argv(&["--threads", "zero"])).is_err());
        assert!(BenchArgs::from_args(argv(&["--store"])).is_err());
    }

    #[test]
    fn resume_requires_an_existing_store() {
        let err = BenchArgs::from_args(argv(&["--resume"])).unwrap_err();
        assert!(err.contains("--resume requires --store"));

        let missing = std::env::temp_dir().join(format!(
            "ava-bencharg-missing-{}-resume",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&missing);
        let err = BenchArgs::from_args(argv(&["--store", missing.to_str().unwrap(), "--resume"]))
            .unwrap_err();
        assert!(err.contains("nothing to resume"), "{err}");

        // With the directory present, --resume opens the store normally.
        std::fs::create_dir_all(&missing).unwrap();
        let args = BenchArgs::from_args(argv(&["--store", missing.to_str().unwrap(), "--resume"]))
            .unwrap();
        assert!(args.store.is_some());
        assert!(args.resume);
        let _ = std::fs::remove_dir_all(&missing);
    }

    #[test]
    fn store_flag_opens_and_creates_the_directory() {
        let dir = std::env::temp_dir().join(format!("ava-bencharg-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let args = BenchArgs::from_args(argv(&["--store", dir.to_str().unwrap()])).unwrap();
        assert!(args.store.is_some());
        assert!(dir.is_dir(), "--store must create the directory");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn extensions_take_values_and_finish_rejects_leftovers() {
        let mut args = BenchArgs::from_args(argv(&["--mode", "warn", "--bogus"])).unwrap();
        assert_eq!(args.take_value("--mode").unwrap().as_deref(), Some("warn"));
        assert_eq!(args.take_value("--mode").unwrap(), None);
        assert!(args.take_value("--bogus").is_err(), "flag without a value");
        let err = args.finish().unwrap_err();
        assert!(err.contains("--bogus"));
        assert!(!args.take_switch("--quiet"));
    }

    #[test]
    fn execution_flags_can_be_rejected_by_sweepless_binaries() {
        let args = BenchArgs::from_args(argv(&["--threads", "2"])).unwrap();
        let err = args
            .reject_execution_flags("table1 is analytic")
            .unwrap_err();
        assert!(err.contains("table1 is analytic"));
        let args = BenchArgs::from_args(argv(&[])).unwrap();
        assert!(args.reject_execution_flags("never triggers").is_ok());
        assert!(args.reject_json("never triggers").is_ok());
    }

    #[test]
    fn write_json_round_trips_through_the_filesystem() {
        let path = std::env::temp_dir().join("ava_cli_test.json");
        let path = path.to_str().unwrap();
        let value = object().field("k", "v").finish();
        write_json(path, &value).unwrap();
        assert_eq!(std::fs::read_to_string(path).unwrap(), "{\"k\":\"v\"}\n");
        let _ = std::fs::remove_file(path);
    }
}

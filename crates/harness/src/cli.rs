//! The shared bench-binary runner: one flag grammar, one JSON document
//! shape, one results directory for every report binary.
//!
//! A binary names every flag it reads ([`BenchHarness::declared`]; the
//! document's four come with it):
//!
//! * `--json`   — print the versioned record document instead of prose,
//! * `--out P`  — write the document to `P` (default
//!   `results/<bench>.json`),
//! * `--no-write` — skip writing the document to disk,
//! * `--force` — replace a document another schema version wrote.
//!
//! The command line is checked once, against that declaration, before
//! the binary does any work ([`BenchHarness::parse`]): `--help` lists
//! the flags, and an undeclared argument, a missing operand or a
//! malformed number is a `CLI00x` diagnostic and exit status 2. After
//! that every reader ([`BenchHarness::flag`], [`BenchHarness::operand`],
//! [`BenchHarness::uint`]) is infallible.

use std::path::{Path, PathBuf};
use std::time::Instant;

use desim::trace::Tracer;
use desim::{Cycle, Frequency, Json, RunRecord, TimeSpan, RUN_RECORD_VERSION};

use crate::diag::{Diagnostic, Severity};

/// Where bench documents land unless `--out` overrides it.
const RESULTS_DIR: &str = "results";

/// Guard against silently replacing a results document a *different*
/// schema version wrote: `Err(CLI006)` when `path` holds a parseable
/// bench document whose `version` differs from this writer's
/// [`RUN_RECORD_VERSION`], unless `force`. Missing files, unreadable
/// files and non-document JSON are all fine to (over)write — the
/// guard only protects documents it can actually identify.
fn check_overwrite(path: &Path, force: bool) -> Result<(), Diagnostic> {
    if force {
        return Ok(());
    }
    let Ok(text) = std::fs::read_to_string(path) else {
        return Ok(());
    };
    let existing = Json::parse(&text)
        .ok()
        .and_then(|d| d.get("version").and_then(Json::as_u64));
    match existing {
        Some(v) if v != u64::from(RUN_RECORD_VERSION) => Err(Diagnostic::hard(
            "CLI006",
            path.display().to_string(),
            format!(
                "refusing to overwrite a schema-version-{v} document with a \
                 version-{RUN_RECORD_VERSION} one; pass --force to replace it"
            ),
        )),
        _ => Ok(()),
    }
}

/// A command-line flag a binary declares ([`BenchHarness::declared`]):
/// `--name`, the operand it takes (`None` for a switch), whether that
/// operand is an unsigned integer, and its help.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The flag without its leading `--`.
    name: &'static str,
    /// The operand's placeholder in `--help`, if the flag takes one.
    operand: Option<&'static str>,
    /// Whether [`BenchHarness::parse`] holds the operand to a `u64`.
    uint: bool,
    /// One line for `--help`.
    help: &'static str,
}

impl Flag {
    /// The reduced-workload switch.
    pub const SMALL: Flag = Flag::switch("small", "run the reduced test-scale workloads");

    /// The machine-readable output switch.
    pub const JSON: Flag = Flag::switch(
        "json",
        "print the versioned record document instead of prose",
    );

    /// The flags [`BenchHarness::finish`] reads: every binary built
    /// with [`BenchHarness::declared`] takes them.
    pub const DOCUMENT: [Flag; 4] = [
        Flag::JSON,
        Flag::operand(
            "out",
            "P",
            "write the document to P (default results/<bench>.json)",
        ),
        Flag::switch("no-write", "do not write the document"),
        Flag::switch("force", "replace a document another schema version wrote"),
    ];

    /// A flag without an operand.
    pub const fn switch(name: &'static str, help: &'static str) -> Flag {
        Flag {
            name,
            operand: None,
            uint: false,
            help,
        }
    }

    /// A flag followed by an operand, shown as `placeholder`.
    pub const fn operand(
        name: &'static str,
        placeholder: &'static str,
        help: &'static str,
    ) -> Flag {
        Flag {
            name,
            operand: Some(placeholder),
            uint: false,
            help,
        }
    }

    /// A flag followed by an unsigned-integer operand
    /// ([`BenchHarness::uint`]).
    pub const fn uint(name: &'static str, placeholder: &'static str, help: &'static str) -> Flag {
        Flag {
            uint: true,
            ..Flag::operand(name, placeholder, help)
        }
    }
}

/// The `--help` text of binary `name`: one line per flag of `flags`.
fn help(name: &str, flags: &[Flag]) -> String {
    let mut text = format!("usage: {name} [flags]\n");
    for f in flags {
        let usage = match f.operand {
            Some(operand) => format!("--{} {operand}", f.name),
            None => format!("--{}", f.name),
        };
        text += &format!("  {usage:<22} {}\n", f.help);
    }
    text + &format!("  {:<22} {}\n", "--help", "print these flags and exit")
}

/// Per-binary runner: collects [`RunRecord`]s, mirrors human-readable
/// prose to stdout (suppressed under `--json`), and serialises one
/// versioned document at [`BenchHarness::finish`].
#[derive(Debug)]
pub struct BenchHarness {
    name: &'static str,
    args: Vec<String>,
    records: Vec<RunRecord>,
    extra: Vec<(String, Json)>,
}

impl BenchHarness {
    /// A runner for bench `name` over `args`, checked against `flags`
    /// and nothing else. Refused, each with its argument as the
    /// subject: an argument that is neither a declared flag nor the
    /// operand of one (`CLI008`), and then — the first in argument
    /// order — a flag whose operand is missing, i.e. the end of the
    /// line or another `--flag` (`CLI002`), or a [`Flag::uint`] operand
    /// that is not a `u64` (`CLI004`).
    pub fn parse(
        name: &'static str,
        args: Vec<String>,
        flags: &[Flag],
    ) -> Result<Self, Diagnostic> {
        let mut malformed = None;
        let mut words = args.iter().peekable();
        while let Some(arg) = words.next() {
            let flag = arg
                .strip_prefix("--")
                .and_then(|bare| flags.iter().find(|f| f.name == bare));
            let Some(flag) = flag else {
                // An empty argument is shown as `""`, never as nothing.
                let subject = if arg.is_empty() { "\"\"" } else { arg };
                let message = format!("{name} takes no such argument");
                return Err(Diagnostic::hard("CLI008", subject, message));
            };
            if flag.operand.is_none() {
                continue;
            }
            let refused = match words.next_if(|word| !word.starts_with("--")) {
                None => Some(Diagnostic::hard(
                    "CLI002",
                    arg.clone(),
                    format!("{arg} requires an operand"),
                )),
                Some(text) if flag.uint && text.parse::<u64>().is_err() => Some(Diagnostic::hard(
                    "CLI004",
                    format!("{arg} {text}"),
                    format!("malformed {arg}; expected an unsigned integer"),
                )),
                Some(_) => None,
            };
            malformed = malformed.or(refused);
        }
        if let Some(d) = malformed {
            return Err(d);
        }
        Ok(BenchHarness {
            name,
            args,
            records: Vec::new(),
            extra: Vec::new(),
        })
    }

    /// A runner for bench `name` over the process arguments that reads
    /// `flags` and the document flags (`--json`, `--out P`,
    /// `--no-write`, `--force`) and nothing else: `--help` prints them
    /// and exits 0; a refused command line ([`BenchHarness::parse`]) is
    /// its diagnostic on stderr and exit status 2.
    pub fn declared(name: &'static str, flags: &[Flag]) -> BenchHarness {
        BenchHarness::declared_exactly(name, &[flags, &Flag::DOCUMENT].concat())
    }

    /// [`BenchHarness::declared`] for a binary that writes no document:
    /// it reads `flags` and nothing else.
    pub fn declared_exactly(name: &'static str, flags: &[Flag]) -> BenchHarness {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.iter().any(|a| a == "--help") {
            print!("{}", help(name, flags));
            std::process::exit(0);
        }
        BenchHarness::parse(name, args, flags).unwrap_or_else(|d| {
            eprintln!("{d}");
            eprintln!("try --help for the flags {name} takes");
            std::process::exit(2);
        })
    }

    /// Whether switch `--name` was passed.
    pub fn flag(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == &format!("--{name}"))
    }

    /// The operand of the first `--name`, if the flag was passed.
    pub fn operand(&self, name: &str) -> Option<&str> {
        let key = format!("--{name}");
        let at = self.args.iter().position(|a| a == &key)?;
        // `parse` checked that an operand follows every operand flag.
        Some(&self.args[at + 1])
    }

    /// The operand of `--name`, declared with [`Flag::uint`].
    pub fn uint(&self, name: &str) -> Option<u64> {
        let text = self.operand(name)?;
        Some(
            text.parse()
                .expect("parse checked every Flag::uint operand"),
        )
    }

    /// Whether the reduced workload scale was requested.
    pub fn small(&self) -> bool {
        self.flag("small")
    }

    /// Whether machine-readable output was requested.
    pub fn json(&self) -> bool {
        self.flag("json")
    }

    /// The `--trace` output path, if tracing was requested.
    pub fn trace_path(&self) -> Option<&str> {
        self.operand("trace")
    }

    /// Whether `--heatmap` asked for the per-link mesh table.
    pub fn heatmap(&self) -> bool {
        self.flag("heatmap")
    }

    /// A tracer matching the flags: recording when `--trace` was
    /// passed, disabled (zero-cost) otherwise.
    pub fn tracer(&self) -> Tracer {
        if self.trace_path().is_some() {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        }
    }

    /// Where the results document goes: `--out`, or `file` in the
    /// results directory.
    pub fn out_path(&self, file: &str) -> PathBuf {
        self.operand("out")
            .map_or_else(|| Path::new(RESULTS_DIR).join(file), PathBuf::from)
    }

    /// The one file writer behind every binary: refuse to replace a
    /// document of another schema version (`check_overwrite`, a hard
    /// `CLI006` unless `--force`), create the directory, write `text`,
    /// and say `wrote <path><note>`. A directory or file that cannot be
    /// written is a `CLI006` warning; what either means for the exit
    /// status is the caller's decision.
    pub fn write_file(&self, path: &Path, text: &str, note: &str) -> Result<(), Diagnostic> {
        check_overwrite(path, self.flag("force"))?;
        let failed = |what: &str, e: std::io::Error| {
            Diagnostic::warning("CLI006", path.display().to_string(), format!("{what}: {e}"))
        };
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| failed("cannot create the directory", e))?;
        }
        std::fs::write(path, text).map_err(|e| failed("cannot write", e))?;
        self.say(format_args!("wrote {}{note}", path.display()));
        Ok(())
    }

    /// [`BenchHarness::write_file`] for a results document: a refused
    /// overwrite ends the process with status 2, an unwritable path is
    /// a warning on stderr.
    pub fn write_document(&self, path: &Path, document: &Json) {
        if let Err(d) = self.write_file(path, &document.to_string_pretty(), "") {
            eprintln!("{d}");
            if d.severity == Severity::Hard {
                std::process::exit(2);
            }
        }
    }

    /// Serialise `tracer`'s timeline as Chrome `trace_event` JSON at
    /// `path`; `clock` converts cycles to microseconds. A trace that
    /// cannot be written is reported on stderr and the run goes on.
    pub fn write_trace(&self, path: impl AsRef<Path>, tracer: &Tracer, clock: Frequency) {
        let dropped = match tracer.dropped() {
            0 => String::new(),
            n => format!(", {n} dropped"),
        };
        let note = format!(" (trace, {} events{dropped})", tracer.event_count());
        let text = tracer.to_chrome_json(clock).to_string_pretty();
        if let Err(d) = self.write_file(path.as_ref(), &text, &note) {
            eprintln!("{d}");
        }
    }

    /// Print prose output (suppressed under `--json` so the document
    /// stays parseable).
    pub fn say(&self, text: impl std::fmt::Display) {
        if !self.json() {
            println!("{text}");
        }
    }

    /// Collect a record into the bench document.
    pub fn record(&mut self, record: RunRecord) {
        self.records.push(record);
    }

    /// Records collected so far.
    pub fn records(&self) -> &[RunRecord] {
        &self.records
    }

    /// Attach an extra top-level key to the bench document (e.g. the
    /// Table I rows next to the raw records). Later keys win.
    pub fn attach(&mut self, key: impl Into<String>, value: Json) {
        self.extra.push((key.into(), value));
    }

    /// Wall-clock a host-side closure into a record labelled `label`
    /// (1 cycle = 1 ns, i.e. a 1 GHz reference clock). The record is
    /// returned — attach metrics, then pass it to
    /// [`BenchHarness::record`].
    pub fn host_record<T>(label: &str, f: impl FnOnce() -> T) -> (RunRecord, T) {
        let start = Instant::now();
        let value = f();
        let nanos = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let span = TimeSpan::new(Cycle(nanos), Frequency::ghz(1.0));
        let mut record = RunRecord::new(label, span);
        record.platform = "host".to_string();
        (record, value)
    }

    /// The versioned document all collected records serialise into.
    pub fn document(&self) -> Json {
        let mut doc = Json::obj()
            .with("bench", self.name)
            .with("version", RUN_RECORD_VERSION)
            .with(
                "records",
                Json::Arr(self.records.iter().map(RunRecord::to_json).collect()),
            );
        for (k, v) in &self.extra {
            doc = doc.with(k.as_str(), v.clone());
        }
        doc
    }

    /// Emit the document: print it under `--json`, and write it to
    /// `--out` (default `results/<bench>.json`) unless `--no-write`.
    pub fn finish(self) {
        let doc = self.document();
        if self.json() {
            print!("{}", doc.to_string_pretty());
        }
        if self.flag("no-write") {
            return;
        }
        self.write_document(&self.out_path(&format!("{}.json", self.name)), &doc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(std::string::ToString::to_string).collect()
    }

    /// `parse` over `extra` and the document flags.
    fn parse(list: &[&str], extra: &[Flag]) -> Result<BenchHarness, Diagnostic> {
        BenchHarness::parse("t", args(list), &[extra, &Flag::DOCUMENT].concat())
    }

    #[test]
    fn flags_and_values_parse() {
        let h = parse(&["--small", "--json", "--out", "x.json"], &[Flag::SMALL]).unwrap();
        assert!(h.small() && h.json());
        assert_eq!(h.operand("out"), Some("x.json"));
        assert_eq!(h.operand("missing"), None);
        assert!(!h.flag("no-write"));
    }

    #[test]
    fn operand_distinguishes_missing_flag_from_missing_value() {
        let flags = [
            Flag::operand("trace", "P", "trace"),
            Flag::operand("mapping", "M", "mapping"),
        ];
        let h = parse(&["--out", "x.json", "--trace", "t.json"], &flags).unwrap();
        assert_eq!(h.operand("out"), Some("x.json"));
        assert_eq!(h.operand("mapping"), None);
        let err = parse(&["--out", "x.json", "--trace", "--json"], &flags).unwrap_err();
        assert_eq!((err.code, err.subject.as_str()), ("CLI002", "--trace"));
        assert_eq!(parse(&["--out"], &flags).unwrap_err().code, "CLI002");
    }

    #[test]
    fn undeclared_arguments_are_cli008_and_operands_are_skipped() {
        let flags = [Flag::SMALL, Flag::operand("seed", "N", "seed")];
        let check = |list: &[&str]| BenchHarness::parse("t", args(list), &flags).map(|_| ());
        assert!(check(&["--small", "--seed", "-1", "--small"]).is_ok());
        // A missing operand is a CLI002 on its flag.
        let err = check(&["--seed", "--small"]).unwrap_err();
        assert_eq!((err.code, err.subject.as_str()), ("CLI002", "--seed"));
        for bad in [
            &["--small", "--bogus-flag"][..],
            &["--seed", "3", "4"],
            &["--smal"],
            &["--seed", "--bogus"],
            &["--small=1"],
        ] {
            let err = check(bad).unwrap_err();
            assert_eq!(err.code, "CLI008", "{bad:?}");
            assert_eq!(&err.subject, bad.last().unwrap(), "{bad:?}");
        }
        let help = help("t", &flags);
        assert!(
            help.contains("--seed N") && help.contains("--help"),
            "{help}"
        );
    }

    #[test]
    fn uint_operands_are_checked_before_they_are_read() {
        let flags = [
            Flag::uint("seed", "N", "seed"),
            Flag::operand("name", "S", "name"),
        ];
        let check = |list: &[&str]| BenchHarness::parse("t", args(list), &flags);
        let h = check(&["--seed", "18446744073709551615", "--name", "7x"]).unwrap();
        assert_eq!(
            (h.uint("seed"), h.operand("name")),
            (Some(u64::MAX), Some("7x"))
        );
        assert_eq!(check(&["--name", "7x"]).unwrap().uint("seed"), None);
        for text in ["banana", "-1", "18446744073709551616", "", "+"] {
            let err = check(&["--seed", text]).unwrap_err();
            assert_eq!(err.code, "CLI004", "{text:?}");
            assert_eq!(err.subject, format!("--seed {text}"));
        }
        // The first refusal in argument order stands, but an undeclared
        // argument anywhere is refused first.
        assert_eq!(
            check(&["--seed", "x", "--name"]).unwrap_err().code,
            "CLI004"
        );
        assert_eq!(
            check(&["--name", "--seed", "x"]).unwrap_err().code,
            "CLI002"
        );
        assert_eq!(
            check(&["--seed", "x", "--bogus"]).unwrap_err().code,
            "CLI008"
        );
    }

    #[test]
    fn document_carries_name_version_and_records() {
        let mut h = parse(&[], &[]).unwrap();
        let span = TimeSpan::new(Cycle(10), Frequency::ghz(1.0));
        h.record(RunRecord::new("a", span));
        h.record(RunRecord::new("b", span));
        let doc = h.document();
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some("t"));
        assert_eq!(
            doc.get("version").and_then(Json::as_u64),
            Some(u64::from(RUN_RECORD_VERSION))
        );
        assert_eq!(
            doc.get("records")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn attached_keys_land_in_the_document() {
        let mut h = parse(&[], &[]).unwrap();
        h.attach("table", Json::obj().with("rows", 3u64));
        let doc = h.document();
        assert_eq!(
            doc.get("table")
                .and_then(|t| t.get("rows"))
                .and_then(Json::as_u64),
            Some(3)
        );
    }

    #[test]
    fn check_overwrite_refuses_only_version_mismatches() {
        let dir = std::env::temp_dir().join(format!("harness-cli006-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Missing file: fine.
        assert!(check_overwrite(&dir.join("absent.json"), false).is_ok());
        // Same version: fine.
        let same = dir.join("same.json");
        std::fs::write(
            &same,
            Json::obj()
                .with("version", RUN_RECORD_VERSION)
                .to_string_pretty(),
        )
        .unwrap();
        assert!(check_overwrite(&same, false).is_ok());
        // Unidentifiable contents: fine (nothing to protect).
        let junk = dir.join("junk.json");
        std::fs::write(&junk, "not json at all").unwrap();
        assert!(check_overwrite(&junk, false).is_ok());
        // Version mismatch: CLI006 unless forced.
        let old = dir.join("old.json");
        std::fs::write(
            &old,
            Json::obj()
                .with("version", u64::from(RUN_RECORD_VERSION) + 1)
                .to_string_pretty(),
        )
        .unwrap();
        let err = check_overwrite(&old, false).unwrap_err();
        assert_eq!(err.code, "CLI006");
        assert!(err.message.contains("--force"));
        assert!(check_overwrite(&old, true).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn host_record_measures_wall_time() {
        let (r, sum) = BenchHarness::host_record("spin", || (0..1000u64).sum::<u64>());
        assert_eq!(sum, 499_500);
        assert_eq!(r.platform, "host");
        assert!(r.elapsed.cycles > Cycle::ZERO);
    }
}

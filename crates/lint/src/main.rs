//! `cargo run -p lint [-- OPTIONS]` — run the workspace invariant linter.
//!
//! Exit codes: 0 clean, 1 violations or stale baseline entries, 2 usage or
//! I/O error.

use lint::{baseline, report};
use std::path::PathBuf;
use std::process::ExitCode;

struct Opts {
    root: PathBuf,
    baseline: Option<PathBuf>,
    format: Format,
    out: Option<PathBuf>,
    write_baseline: bool,
}

#[derive(PartialEq)]
enum Format {
    Human,
    Json,
}

const USAGE: &str = "usage: lint [--root PATH] [--baseline PATH] [--format human|json] \
[--out PATH] [--write-baseline]

  --root PATH        workspace root to scan (default: nearest dir with Cargo.toml)
  --baseline PATH    baseline file (default: <root>/lint_baseline.txt if present)
  --format FMT       report format: human (default) or json
  --out PATH         also write the report to PATH
  --write-baseline   rewrite the baseline to cover all current violations
                     (reasons are stubbed; edit them before committing)";

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts {
        root: find_root(),
        baseline: None,
        format: Format::Human,
        out: None,
        write_baseline: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |name: &str| {
            args.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--root" => opts.root = PathBuf::from(val("--root")?),
            "--baseline" => opts.baseline = Some(PathBuf::from(val("--baseline")?)),
            "--out" => opts.out = Some(PathBuf::from(val("--out")?)),
            "--format" => {
                opts.format = match val("--format")?.as_str() {
                    "human" => Format::Human,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format `{other}`")),
                }
            }
            "--write-baseline" => opts.write_baseline = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(opts)
}

/// Nearest ancestor of the current directory containing a `crates/` dir —
/// lets the binary run from anywhere inside the workspace.
fn find_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("crates").is_dir() && dir.join("Cargo.toml").is_file() {
            return dir;
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

fn main() -> ExitCode {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("lint: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    let sources = match lint::collect_sources(&opts.root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("lint: cannot scan {}: {e}", opts.root.display());
            return ExitCode::from(2);
        }
    };
    let files_scanned = sources.len();
    let violations = lint::lint_sources(&sources);
    let loc = lint::loc::count(&sources);

    let baseline_path = opts
        .baseline
        .clone()
        .unwrap_or_else(|| opts.root.join("lint_baseline.txt"));
    let entries = if baseline_path.is_file() {
        match std::fs::read_to_string(&baseline_path).map_err(|e| e.to_string()).and_then(|t| baseline::parse(&t)) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("lint: {}: {e}", baseline_path.display());
                return ExitCode::from(2);
            }
        }
    } else {
        Vec::new()
    };

    if opts.write_baseline {
        let entries: Vec<baseline::BaselineEntry> = violations
            .iter()
            .map(|v| baseline::BaselineEntry {
                rule: v.rule.to_string(),
                file: v.file.clone(),
                fingerprint: v.fingerprint.clone(),
                reason: format!("pre-existing (line {}); TODO justify or fix", v.line),
            })
            .collect();
        if let Err(e) = std::fs::write(&baseline_path, baseline::render(&entries)) {
            eprintln!("lint: cannot write {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        println!(
            "lint: wrote {} entr{} to {}",
            entries.len(),
            if entries.len() == 1 { "y" } else { "ies" },
            baseline_path.display()
        );
        return ExitCode::SUCCESS;
    }

    let (fresh, baselined, stale) = baseline::apply(violations, &entries);
    let run = report::RunReport { fresh: &fresh, baselined, stale: &stale, files_scanned, loc: &loc };
    let rendered = match opts.format {
        Format::Human => report::human(&run),
        Format::Json => report::json(&run),
    };
    print!("{rendered}");
    if let Some(out) = &opts.out {
        // The artifact is always JSON, whatever the console format.
        let artifact = report::json(&run);
        if let Err(e) = std::fs::write(out, artifact) {
            eprintln!("lint: cannot write {}: {e}", out.display());
            return ExitCode::from(2);
        }
    }
    if run.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! `cargo run -p lint [-- OPTIONS]` — run the workspace invariant linter.
//!
//! Exit codes: 0 clean, 1 violations, 2 usage or I/O error.

use lint::report;
use std::path::PathBuf;
use std::process::ExitCode;

struct Opts {
    root: PathBuf,
    format: Format,
    out: Option<PathBuf>,
}

#[derive(PartialEq)]
enum Format {
    Human,
    Json,
}

const USAGE: &str = "usage: lint [--root PATH] [--format human|json] [--out PATH]

  --root PATH        workspace root to scan (default: nearest dir with Cargo.toml)
  --format FMT       report format: human (default) or json
  --out PATH         also write the report to PATH";

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts {
        root: find_root(),
        format: Format::Human,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |name: &str| {
            args.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--root" => opts.root = PathBuf::from(val("--root")?),
            "--out" => opts.out = Some(PathBuf::from(val("--out")?)),
            "--format" => {
                opts.format = match val("--format")?.as_str() {
                    "human" => Format::Human,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format `{other}`")),
                }
            }
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

    let scanned = lint::collect_sources(&opts.root)
        .and_then(|sources| Ok((sources, lint::collect_benchmark(&opts.root)?)));
    let (mut sources, benchmark) = match scanned {
        Ok(s) => s,
        Err(e) => {
            eprintln!("lint: cannot scan {}: {e}", opts.root.display());
            return ExitCode::from(2);
        }
    };
    let files_scanned = sources.len();
    let violations = lint::lint_sources(&sources);
    sources.extend(benchmark);
    let loc = lint::loc::count(&sources);

    let run = report::RunReport {
        violations: &violations,
        files_scanned,
        loc: &loc,
    };
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

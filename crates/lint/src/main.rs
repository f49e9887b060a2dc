//! dsa-lint CLI.
//!
//! ```text
//! cargo run -p dsa-lint              # report violations
//! cargo run -p dsa-lint -- --deny    # exit non-zero if any (the CI gate)
//! cargo run -p dsa-lint -- --json    # machine-readable findings on stdout
//! cargo run -p dsa-lint -- --root P  # lint a different workspace root
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::path::PathBuf;
use std::process::ExitCode;

/// Escapes a string for a JSON string literal (the crate is
/// dependency-free, so no serde — findings are flat and the escape set
/// small enough to write by hand).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn main() -> ExitCode {
    let mut deny = false;
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--json" => json = true,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("dsa-lint: --root requires a path");
                    return ExitCode::from(2);
                }
            },
            "-h" | "--help" => {
                println!(
                    "dsa-lint: timeline-math, hot-path and shard-state checks clippy cannot state\n\
                     \n\
                     usage: dsa-lint [--deny] [--json] [--root PATH]\n\
                     \n\
                     --deny   exit non-zero if any violation is found (CI gate)\n\
                     --json   print findings as a JSON array on stdout\n\
                     --root   workspace root to lint (default: found from cwd)\n\
                     \n\
                     rules: {}\n\
                     suppress with: // dsa-lint: allow(rule, reason)",
                    dsa_lint::RULES.join(", ")
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("dsa-lint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root.or_else(|| {
        std::env::current_dir().ok().and_then(|cwd| dsa_lint::find_workspace_root(&cwd))
    }) {
        Some(r) => r,
        None => {
            eprintln!("dsa-lint: no workspace root found (pass --root PATH)");
            return ExitCode::from(2);
        }
    };

    let violations = match dsa_lint::lint_workspace(&root) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("dsa-lint: walk failed under {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if json {
        // One finding per object; stable field order; the whole report is
        // a single array so `jq`/problem-matcher consumers need no
        // line-format knowledge.
        let items: Vec<String> = violations
            .iter()
            .map(|v| {
                format!(
                    "  {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
                    json_escape(&v.file),
                    v.line,
                    v.rule,
                    json_escape(&v.message)
                )
            })
            .collect();
        if items.is_empty() {
            println!("[]");
        } else {
            println!("[\n{}\n]", items.join(",\n"));
        }
    } else {
        for v in &violations {
            println!("{v}");
        }
    }
    if violations.is_empty() {
        if !json {
            println!("dsa-lint: clean ({} rules enforced)", dsa_lint::RULES.len());
        }
        ExitCode::SUCCESS
    } else {
        if !json {
            println!("dsa-lint: {} violation(s)", violations.len());
        }
        if deny {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        }
    }
}

//! Design-rule enforcement: the architectural decisions this workspace
//! made on purpose, checked mechanically.
//!
//! * **Dependency policy** — the build is std-only by design: every
//!   manifest outside `crates/compat` may declare only `path = ..`
//!   dependencies, and the heavyweight ecosystem crates (`serde`,
//!   `tokio`, …) are banned outright. `crates/compat` is the one place
//!   external API surface gets reimplemented.
//! * **Durable writes** — persistence uses temp file + fsync + atomic
//!   rename. A bare `fs::rename` in a function that never fsyncs is a
//!   torn-write bug waiting for a power cut: the rename can land while
//!   the data blocks have not.
//! * **Matcher fingerprint** — files in the matcher-kernel set feed the
//!   warm cache's `MATCHER_VERSION` fingerprint; each must reference it
//!   (in code or docs) so nobody changes matching semantics without
//!   confronting the version bump.
//! * **Event-driven serving** — in the serving files (the panic-audit
//!   set), a wait wakes on its event: a channel receive, a condvar, a
//!   blocking accept, or `park`/`unpark`. A `thread::sleep` there is a
//!   latency floor on every request that hits it, so each one is a
//!   finding unless it is a deliberate delay (fault injection, client
//!   retry backoff) annotated with `// lint: allow(design, "..")`.

use crate::lexer::TokKind;
use crate::source::SourceFile;
use crate::{Finding, Rule};

/// Crates that must never appear as dependencies outside `crates/compat`.
const BANNED_DEPS: &[&str] = &["serde", "tokio", "async-std", "reqwest", "hyper", "rayon"];

/// Manifest sections whose keys are dependency names.
fn is_dep_section(section: &str) -> bool {
    section == "dependencies"
        || section == "dev-dependencies"
        || section == "build-dependencies"
        || section.ends_with(".dependencies")
}

/// Checks one `Cargo.toml` (given as repo-relative path + text).
pub fn analyze_manifest(rel: &str, text: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    if rel.starts_with("crates/compat") {
        return out;
    }
    let mut section = String::new();
    // `[dependencies.foo]` subsection tracking: the dep is non-path
    // unless a `path` key shows up before the next section header.
    let mut pending: Option<(String, u32)> = None;
    let mut pending_has_path = false;

    let flush = |pending: &mut Option<(String, u32)>, has_path: bool, out: &mut Vec<Finding>| {
        if let Some((dep, line)) = pending.take() {
            if !has_path {
                out.push(Finding {
                    rule: Rule::Design,
                    file: rel.to_string(),
                    line,
                    token: dep.clone(),
                    message: format!(
                        "dependency `{dep}` is not `path = ..` — external crates are only \
                         allowed under crates/compat"
                    ),
                });
            }
        }
    };

    for (idx, raw) in text.lines().enumerate() {
        let line_no = (idx + 1) as u32;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') {
            flush(&mut pending, pending_has_path, &mut out);
            pending_has_path = false;
            section = line
                .trim_start_matches('[')
                .trim_end_matches(']')
                .to_string();
            // `[dependencies.foo]` — a single-dep subsection.
            for prefix in ["dependencies.", "dev-dependencies.", "build-dependencies."] {
                if let Some(dep) = section.strip_prefix(prefix) {
                    pending = Some((dep.to_string(), line_no));
                    check_banned(rel, dep, line_no, &mut out);
                }
            }
            continue;
        }
        if pending.is_some() {
            if line.starts_with("path") {
                pending_has_path = true;
            }
            continue;
        }
        if !is_dep_section(&section) {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let dep = key.trim().trim_matches('"');
        check_banned(rel, dep, line_no, &mut out);
        if !value.contains("path") {
            out.push(Finding {
                rule: Rule::Design,
                file: rel.to_string(),
                line: line_no,
                token: dep.to_string(),
                message: format!(
                    "dependency `{dep}` is not `path = ..` — external crates are only allowed \
                     under crates/compat"
                ),
            });
        }
    }
    flush(&mut pending, pending_has_path, &mut out);
    out
}

fn check_banned(rel: &str, dep: &str, line: u32, out: &mut Vec<Finding>) {
    if BANNED_DEPS.contains(&dep) {
        out.push(Finding {
            rule: Rule::Design,
            file: rel.to_string(),
            line,
            token: dep.to_string(),
            message: format!(
                "`{dep}` is banned by the std-only design — reimplement the needed surface \
                 under crates/compat instead"
            ),
        });
    }
}

/// Flags `fs::rename` in production source whose enclosing function
/// never fsyncs (`sync_all` / `sync_data`).
pub fn analyze_rename(f: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    if !f.rel.contains("/src/") {
        return out; // tests and benches may shuffle files freely
    }
    let toks = &f.toks;
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident || toks[i].text != "rename" {
            continue;
        }
        if i + 1 >= toks.len() || !(toks[i + 1].kind == TokKind::Punct && toks[i + 1].text == "(") {
            continue; // `rename` as a parameter or field, not a call
        }
        if f.in_test_code(toks[i].line) {
            continue;
        }
        let Some(func) = f.enclosing_fn(i) else {
            continue;
        };
        let (a, b) = func.body.unwrap_or((i, i));
        let fsyncs = toks[a..=b.min(toks.len() - 1)].iter().any(|t| {
            t.kind == TokKind::Ident && matches!(t.text.as_str(), "sync_all" | "sync_data")
        });
        if !fsyncs {
            out.push(Finding {
                rule: Rule::Design,
                file: f.rel.clone(),
                line: toks[i].line,
                token: "rename".into(),
                message: format!(
                    "`fs::rename` in fn {} without an fsync (`sync_all`/`sync_data`) in the \
                     same function — a crash can land the rename before the data",
                    func.name
                ),
            });
        }
    }
    out
}

/// Flags `sleep(..)` calls (`thread::sleep`, `std::thread::sleep`, or an
/// imported `sleep`) outside test code in one serving file.
pub fn analyze_sleep(f: &SourceFile) -> Vec<Finding> {
    let toks = &f.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        let call = t.kind == TokKind::Ident
            && t.text == "sleep"
            && toks
                .get(i + 1)
                .is_some_and(|n| n.kind == TokKind::Punct && n.text == "(");
        // `.sleep(` is some other type's method; `fn sleep(` defines one.
        let other = i > 0 && matches!(toks[i - 1].text.as_str(), "." | "fn");
        if !call || other || f.in_test_code(t.line) {
            continue;
        }
        out.push(Finding {
            rule: Rule::Design,
            file: f.rel.clone(),
            line: t.line,
            token: "sleep".into(),
            message: "`thread::sleep` on the serving path waits out a fixed tick instead of \
                      waking on its event — block on the channel, condvar, accept, or \
                      `park_timeout`, or justify a deliberate delay with \
                      `// lint: allow(design, \"..\")`"
                .into(),
        });
    }
    out
}

/// Requires every matcher-kernel file to reference `MATCHER_VERSION`.
pub fn analyze_matcher_version(files: &[SourceFile], kernel: &[String]) -> Vec<Finding> {
    let mut out = Vec::new();
    for rel in kernel {
        let Some(f) = files.iter().find(|f| &f.rel == rel) else {
            continue; // file absent (e.g. fixture tree) — nothing to check
        };
        if !f.text.contains("MATCHER_VERSION") {
            out.push(Finding {
                rule: Rule::Design,
                file: f.rel.clone(),
                line: 1,
                token: "matcher-version".into(),
                message: "matcher-kernel file does not reference MATCHER_VERSION — changes \
                          here alter matching semantics and must confront the cache version \
                          bump (see crates/core/src/cache.rs)"
                    .into(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_deps_pass_and_registry_deps_fail() {
        let f = analyze_manifest(
            "crates/x/Cargo.toml",
            "[package]\nname = \"x\"\n[dependencies]\n\
             good = { path = \"../good\" }\nbad = \"1.0\"\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].token, "bad");
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn banned_deps_fail_even_with_path() {
        let f = analyze_manifest(
            "crates/x/Cargo.toml",
            "[dependencies]\nserde = { path = \"../compat/serde\" }\n",
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("banned"));
    }

    #[test]
    fn compat_manifests_are_exempt() {
        let f = analyze_manifest(
            "crates/compat/rand/Cargo.toml",
            "[dependencies]\nzzz = \"1\"\n",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn dep_subsection_with_path_passes() {
        let f = analyze_manifest(
            "crates/x/Cargo.toml",
            "[dependencies.good]\npath = \"../good\"\n\n[dependencies.bad]\nversion = \"1\"\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].token, "bad");
    }

    #[test]
    fn rename_without_fsync_is_flagged() {
        let src = "fn save(p: &Path) {\n  std::fs::write(p, b\"x\");\n  \
                   std::fs::rename(p, p);\n}\n\
                   fn good(p: &Path) {\n  f.sync_all();\n  std::fs::rename(p, p);\n}\n";
        let f = analyze_rename(&SourceFile::parse("crates/x/src/a.rs".into(), src.into()));
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
        assert!(f[0].message.contains("fn save"));
    }

    #[test]
    fn sleep_calls_are_flagged_outside_tests() {
        let src = "fn a() {\n  std::thread::sleep(d);\n}\n\
                   fn b() {\n  sleep(d);\n  clock.sleep(d);\n}\n\
                   fn sleep(d: u64) {}\n\
                   #[cfg(test)]\nmod tests {\n  fn c() { thread::sleep(d); }\n}\n";
        let f = analyze_sleep(&SourceFile::parse("crates/x/src/a.rs".into(), src.into()));
        let lines: Vec<u32> = f.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![2, 5]);
    }

    #[test]
    fn matcher_kernel_must_reference_version() {
        let yes = SourceFile::parse("k.rs".into(), "// MATCHER_VERSION guard\n".into());
        let no = SourceFile::parse("m.rs".into(), "fn f() {}\n".into());
        let f = analyze_matcher_version(&[yes, no], &["k.rs".into(), "m.rs".into()]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].file, "m.rs");
    }
}

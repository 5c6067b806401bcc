//! `tacos-lint` — repo-native static analysis for the TACOS workspace.
//!
//! The registry-free environment rules out clippy plugins, so the
//! project owns its analyzer the same way it owns `Json::parse`: a
//! small comment/string-aware lexer ([`lexer`]), a per-file source
//! model ([`source`]), and four analyses on top:
//!
//! * [`locks`] — lock-order deadlock detection over `crates/core` +
//!   `crates/serve`, with call-graph propagation and cycle reporting.
//! * [`panics`] — panic-path audit of the designated serving modules.
//! * [`unsafety`] — every `unsafe` needs an adjacent `// SAFETY:`.
//! * [`design`] — dependency policy, durable-write pairing, the
//!   `MATCHER_VERSION` matcher-kernel rule, and no `thread::sleep` on
//!   the serving path.
//!
//! Output is deterministic (path-sorted, stable messages) so CI diffs
//! are meaningful, and a committed count-ratcheted [`baseline`] lets
//! pre-existing findings pass while anything new fails.

use std::collections::BTreeMap;
use std::path::PathBuf;

pub mod baseline;
pub mod design;
pub mod lexer;
pub mod locks;
pub mod panics;
pub mod source;
pub mod unsafety;

/// Which analysis produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Lock-order graph: cycles and unregistered acquisitions.
    LockOrder,
    /// Panic-path audit in designated serving modules.
    Panic,
    /// `unsafe` without `// SAFETY:`.
    Unsafe,
    /// Dependency policy / durable writes / matcher fingerprint /
    /// sleeps on the serving path.
    Design,
}

impl Rule {
    /// Stable lowercase name used in reports, baselines, and
    /// `// lint: allow(<rule>, "..")` comments.
    pub fn as_str(self) -> &'static str {
        match self {
            Rule::LockOrder => "lock-order",
            Rule::Panic => "panic",
            Rule::Unsafe => "unsafe",
            Rule::Design => "design",
        }
    }
}

/// One finding, addressed by repo-relative path and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Producing rule.
    pub rule: Rule,
    /// Repo-relative `/`-separated path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Short stable token naming the construct (baseline fingerprint).
    pub token: String,
    /// Human-readable explanation, possibly multi-line (lock cycles).
    pub message: String,
}

/// Analyzer configuration. [`Options::new`] carries the real repo's
/// designated-file sets; fixture trees reuse them by mimicking the same
/// relative paths.
pub struct Options {
    /// Workspace root to scan.
    pub root: PathBuf,
    /// Files under the panic-path audit and the no-sleep rule
    /// (repo-relative).
    pub panic_files: Vec<String>,
    /// Files that must reference `MATCHER_VERSION` (repo-relative).
    pub matcher_kernel_files: Vec<String>,
    /// Path prefixes whose files form the lock-order domain.
    pub lock_domain_prefixes: Vec<String>,
}

impl Options {
    /// Options for scanning the workspace rooted at `root`.
    pub fn new(root: PathBuf) -> Options {
        Options {
            root,
            panic_files: vec![
                "crates/serve/src/daemon.rs".into(),
                "crates/serve/src/client.rs".into(),
                "crates/core/src/inflight.rs".into(),
                "crates/core/src/warm.rs".into(),
                "crates/core/src/parallel.rs".into(),
            ],
            matcher_kernel_files: vec![
                "crates/core/src/matching.rs".into(),
                "crates/core/src/cache.rs".into(),
                "crates/core/src/warm.rs".into(),
                "crates/collective/src/bits.rs".into(),
                "crates/collective/src/matrix.rs".into(),
            ],
            lock_domain_prefixes: vec!["crates/core/src/".into(), "crates/serve/src/".into()],
        }
    }
}

/// Counters surfaced by `tacos lint --stats`.
#[derive(Debug, Default, Clone)]
pub struct Stats {
    /// `.rs` files scanned.
    pub files: usize,
    /// Manifests checked by the dependency rule.
    pub manifests: usize,
    /// Distinct locks in the lock-order registry.
    pub locks: usize,
    /// Mutex/RwLock acquisition sites in the lock domain.
    pub acquisitions: usize,
    /// Condvar wait/notify sites (coverage only).
    pub condvar_sites: usize,
    /// Distinct edges in the lock-order graph.
    pub edges: usize,
    /// Findings per rule (pre-baseline, post-suppression).
    pub by_rule: BTreeMap<&'static str, usize>,
}

/// The result of one lint run.
pub struct Outcome {
    /// New findings — nonzero means the gate fails.
    pub findings: Vec<Finding>,
    /// Findings absorbed by the committed baseline.
    pub baselined: usize,
    /// Findings suppressed by well-formed `// lint: allow(..)` comments.
    pub allowed: usize,
    /// Aggregate counters.
    pub stats: Stats,
}

/// Runs every analysis over the workspace at `opts.root`.
///
/// # Errors
/// Returns a message if the workspace cannot be read.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let (kept, allowed, stats) = collect(opts)?;
    let base_text = std::fs::read_to_string(opts.root.join("lint.baseline")).unwrap_or_default();
    let base = baseline::parse(&base_text);
    let (fresh, baselined) = baseline::apply(kept, &base);
    Ok(Outcome {
        findings: fresh,
        baselined,
        allowed,
        stats,
    })
}

/// Regenerates `lint.baseline` from the current findings and returns
/// how many it grandfathered.
///
/// # Errors
/// Returns a message if the workspace cannot be read or written.
pub fn fix_baseline(opts: &Options) -> Result<usize, String> {
    let (kept, _, _) = collect(opts)?;
    let text = baseline::render(&kept);
    std::fs::write(opts.root.join("lint.baseline"), text)
        .map_err(|e| format!("writing lint.baseline: {e}"))?;
    Ok(kept.len())
}

/// Runs the analyses and suppression pass, before any baseline is
/// applied. Returns (findings, allowed, stats).
fn collect(opts: &Options) -> Result<(Vec<Finding>, usize, Stats), String> {
    let files = source::load_workspace(&opts.root)?;
    let mut stats = Stats {
        files: files.len(),
        ..Stats::default()
    };
    let mut findings: Vec<Finding> = Vec::new();

    // Lock-order analysis over the configured domain.
    let domain: Vec<usize> = files
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            opts.lock_domain_prefixes
                .iter()
                .any(|p| f.rel.starts_with(p.as_str()))
        })
        .map(|(i, _)| i)
        .collect();
    let (lock_findings, lock_stats) = locks::analyze(&files, &domain);
    findings.extend(lock_findings);
    stats.locks = lock_stats.locks;
    stats.acquisitions = lock_stats.acquisitions;
    stats.condvar_sites = lock_stats.condvar_sites;
    stats.edges = lock_stats.edges;

    // Panic-path audit and the no-sleep rule in the designated files.
    for f in &files {
        if opts.panic_files.iter().any(|p| p == &f.rel) {
            findings.extend(panics::analyze(f));
            findings.extend(design::analyze_sleep(f));
        }
    }

    // Unsafe hygiene and durable-write pairing, workspace-wide.
    for f in &files {
        findings.extend(unsafety::analyze(f));
        findings.extend(design::analyze_rename(f));
    }

    // Matcher-kernel fingerprint rule.
    findings.extend(design::analyze_matcher_version(
        &files,
        &opts.matcher_kernel_files,
    ));

    // Dependency policy over every manifest.
    for (rel, text) in load_manifests(opts) {
        stats.manifests += 1;
        findings.extend(design::analyze_manifest(&rel, &text));
    }

    // Suppressions: a well-formed same-line allow comment absorbs the
    // finding; a malformed one (no quoted reason) is itself a finding.
    // Lock cycles are never line-suppressible — only the baseline can
    // carry one, and only until it is fixed.
    let by_rel: BTreeMap<&str, &source::SourceFile> =
        files.iter().map(|f| (f.rel.as_str(), f)).collect();
    let mut allowed = 0usize;
    let mut kept = Vec::with_capacity(findings.len());
    for f in findings {
        if f.token.starts_with("cycle:") {
            kept.push(f);
            continue;
        }
        match by_rel
            .get(f.file.as_str())
            .and_then(|src| src.allow_on_line(f.line, f.rule.as_str()))
        {
            Some(true) => allowed += 1,
            Some(false) => kept.push(Finding {
                token: "malformed-allow".into(),
                message: format!(
                    "malformed suppression for this {} finding — the grammar is \
                     `// lint: allow({}, \"<reason>\")`, reason required",
                    f.rule.as_str(),
                    f.rule.as_str()
                ),
                ..f
            }),
            None => kept.push(f),
        }
    }
    kept.sort();
    for f in &kept {
        *stats.by_rule.entry(f.rule.as_str()).or_insert(0) += 1;
    }
    Ok((kept, allowed, stats))
}

/// Renders findings + summary in the stable report format.
pub fn render_report(outcome: &Outcome) -> String {
    let mut out = String::new();
    for f in &outcome.findings {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n",
            f.file,
            f.line,
            f.rule.as_str(),
            f.message
        ));
    }
    out.push_str(&format!(
        "tacos-lint: {} finding(s), {} baselined, {} allowed\n",
        outcome.findings.len(),
        outcome.baselined,
        outcome.allowed
    ));
    out
}

/// Renders the one-line `--stats` summary.
pub fn render_stats(outcome: &Outcome) -> String {
    let s = &outcome.stats;
    let by_rule = ["lock-order", "panic", "unsafe", "design"]
        .iter()
        .map(|r| format!("{r}={}", s.by_rule.get(r).copied().unwrap_or(0)))
        .collect::<Vec<_>>()
        .join(" ");
    format!(
        "lint-stats: files={} manifests={} locks={} acquisitions={} condvar_sites={} edges={} \
         {} baselined={} allowed={}",
        s.files,
        s.manifests,
        s.locks,
        s.acquisitions,
        s.condvar_sites,
        s.edges,
        by_rule,
        outcome.baselined,
        outcome.allowed
    )
}

fn load_manifests(opts: &Options) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut paths = vec![opts.root.join("Cargo.toml")];
    let crates = opts.root.join("crates");
    if crates.is_dir() {
        let mut dirs = Vec::new();
        source::collect_crate_dirs(&crates, &mut dirs);
        for d in dirs {
            paths.push(d.join("Cargo.toml"));
        }
    }
    for p in paths {
        let Ok(text) = std::fs::read_to_string(&p) else {
            continue;
        };
        let rel = p
            .strip_prefix(&opts.root)
            .unwrap_or(&p)
            .components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .collect::<Vec<_>>()
            .join("/");
        out.push((rel, text));
    }
    out
}

//! `ntt-lint` — dependency-free determinism & unsafe-discipline linter.
//!
//! The workspace's determinism contract (bit-identical results across
//! thread counts and hosts; see ROADMAP PR 2/4/7) is enforced at run
//! time by the 1-vs-4-thread test matrix. This crate is the
//! compile-time-style complement: a source scanner that rejects the
//! constructs which *silently* break that contract before any test can
//! notice — unordered map iteration, wall-clock reads in compute
//! crates, unseeded entropy, fused multiply-adds in the kernels — plus
//! hygiene rules for `unsafe`, `#[allow]`, atomic orderings, and panics
//! on serving paths.
//!
//! Rules (see README "Static analysis" for rationale):
//!
//! - **R1** every `unsafe` needs an immediately preceding `// SAFETY:`
//!   (or doc `# Safety`) comment; `unsafe fn(..)` pointer *types* are
//!   exempt.
//! - **R2** no `HashMap`/`HashSet` in non-test code of the
//!   deterministic crates (tensor, nn, core, fleet, data, sim).
//! - **R3** no `Instant::now` / `SystemTime` outside obs, serve, bench
//!   (the wire tier, `net`, carries deadlines as relative `Duration`s
//!   into the `Batcher` and never reads a clock).
//! - **R4** no `thread_rng` / `from_entropy` / `RandomState` anywhere.
//! - **R5** `#[allow(...)]` and non-`Relaxed` atomic `Ordering`s need a
//!   justification comment.
//! - **R6** `.unwrap()` / `.expect()` in `crates/serve` and
//!   `crates/net` needs a
//!   `// PANIC-OK:` style justification.
//! - **R7** no fused multiply-add in `crates/tensor`: no identifier
//!   containing `fmadd`/`fmsub`/`fnmadd`/`fnmsub`, no `mul_add`, no
//!   `#[target_feature(enable = "fma")]`.
//!
//! Everything is built on a hand-rolled lexer ([`lexer`]) so matches
//! inside strings, comments, and `#[cfg(test)]` / `mod tests` regions
//! never fire. Reviewed exceptions live in `lint-waivers.txt`
//! ([`waivers`]); stale waivers fail the gate just like findings do.

pub mod lexer;
pub mod report;
pub mod rules;
pub mod waivers;

pub use rules::{scan_source, Finding};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Collect the workspace `.rs` files subject to linting, as paths
/// relative to `root`, sorted for deterministic output. Scope is
/// library/binary source only: `crates/*/src/**` and the root facade
/// `src/**`. Integration tests, benches, examples, and the vendored
/// crates are out of scope by construction (they are not reachable
/// from the scanned roots).
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut rel = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                collect_rs(&src, &mut rel)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut rel)?;
    }
    let mut out: Vec<PathBuf> = rel
        .into_iter()
        .map(|p| p.strip_prefix(root).map(Path::to_path_buf).unwrap_or(p))
        .collect();
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Normalize a relative path to the `/`-separated form used in
/// findings and waivers.
pub fn display_path(rel: &Path) -> String {
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Scan every in-scope file under `root` and return all findings,
/// ordered by (path, line).
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for rel in workspace_files(root)? {
        let src = fs::read_to_string(root.join(&rel))?;
        findings.extend(scan_source(&display_path(&rel), &src));
    }
    findings.sort_by(|a, b| (a.path.as_str(), a.line).cmp(&(b.path.as_str(), b.line)));
    Ok(findings)
}

/// Load and parse `lint-waivers.txt` from `root`, if present. A parse
/// failure is returned as the error list; a missing file is simply an
/// empty waiver set.
pub fn load_waivers(root: &Path) -> Result<Vec<waivers::Waiver>, Vec<String>> {
    match fs::read_to_string(root.join("lint-waivers.txt")) {
        Ok(text) => waivers::parse(&text),
        Err(_) => Ok(Vec::new()),
    }
}

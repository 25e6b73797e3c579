//! Table formatting and TSV output for the `paper` binary.
//!
//! Every experiment prints a fixed-width table mirroring the paper's
//! layout (with the paper's reference value next to ours) and writes a
//! machine-readable TSV under `results/`.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A simple aligned-text table.
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "ragged table row");
        self.rows.push(cells.to_vec());
    }

    /// The rows appended so far.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |out: &mut String, cells: &[String]| {
            let mut first = true;
            for (c, w) in cells.iter().zip(&widths) {
                if !first {
                    out.push_str("  ");
                }
                let _ = write!(out, "{c:<w$}");
                first = false;
            }
            out.push('\n');
        };
        line(&mut out, &self.header);
        let total = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Write a TSV version into `results/<name>.tsv` (created under the
    /// workspace root or the current directory).
    pub fn write_tsv(&self, name: &str) -> io::Result<PathBuf> {
        let dir = results_dir();
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.tsv"));
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header.join("\t"));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join("\t"));
        }
        fs::write(&path, out)?;
        Ok(path)
    }
}

/// `results/` next to the workspace `Cargo.toml` when discoverable,
/// else under the current directory.
pub fn results_dir() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("Cargo.toml").exists() {
            return dir.join("results");
        }
        if !dir.pop() {
            return Path::new("results").to_path_buf();
        }
    }
}

/// Format an MSE the way the paper's tables do (×10⁻³ units).
pub fn fmt_e3(v: f64) -> String {
    format!("{:.3}", v * 1e3)
}

/// Format seconds as `XhYY` / `XmYY` / `X.Ys` like the paper's training
/// time column.
pub fn fmt_duration(secs: f64) -> String {
    if secs >= 3600.0 {
        format!(
            "{}h{:02}",
            (secs / 3600.0) as u64,
            ((secs % 3600.0) / 60.0) as u64
        )
    } else if secs >= 60.0 {
        format!("{}m{:02}", (secs / 60.0) as u64, (secs % 60.0) as u64)
    } else {
        format!("{secs:.1}s")
    }
}

/// The commit SHA of the working tree, read straight from `.git`
/// (HEAD → ref file → packed-refs) so benches need no `git` subprocess.
/// `"unknown"` outside a repository or on any parse surprise.
pub fn git_commit_sha() -> String {
    fn read_sha(git_dir: &Path) -> Option<String> {
        let head = fs::read_to_string(git_dir.join("HEAD")).ok()?;
        let head = head.trim();
        let Some(refname) = head.strip_prefix("ref: ") else {
            // Detached HEAD: the file holds the SHA itself.
            return valid_sha(head);
        };
        if let Ok(s) = fs::read_to_string(git_dir.join(refname)) {
            return valid_sha(s.trim());
        }
        // Ref not loose — look it up in packed-refs.
        let packed = fs::read_to_string(git_dir.join("packed-refs")).ok()?;
        packed.lines().find_map(|l| {
            let (sha, name) = l.split_once(' ')?;
            (name == refname).then(|| valid_sha(sha)).flatten()
        })
    }
    fn valid_sha(s: &str) -> Option<String> {
        (s.len() >= 40 && s.chars().all(|c| c.is_ascii_hexdigit())).then(|| s[..40].to_string())
    }
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let dot_git = dir.join(".git");
        if dot_git.is_dir() {
            return read_sha(&dot_git).unwrap_or_else(|| "unknown".into());
        }
        if dot_git.is_file() {
            // Worktree: `.git` is a pointer file ("gitdir: <path>").
            let target = fs::read_to_string(&dot_git)
                .ok()
                .and_then(|s| s.trim().strip_prefix("gitdir: ").map(PathBuf::from));
            return target
                .and_then(|t| read_sha(&t))
                .unwrap_or_else(|| "unknown".into());
        }
        if !dir.pop() {
            return "unknown".into();
        }
    }
}

/// Host context as a JSON object string: core count, `NTT_THREADS`, the
/// CPU model when readable, the git commit the tree is at, and whether
/// the `NTT_OBS` kill switch left observability on. The `e2e` benchmark
/// prints it at start-up so a number in the perf trajectory is interpretable —
/// a ≤1× thread-scaling "speedup" measured on a 1-core container reads
/// very differently from the same number on a 16-core box, and a
/// latency histogram gathered with metrics off would be empty.
pub fn host_context_json() -> String {
    // Minimal JSON string escaping so arbitrary env/cpuinfo content
    // cannot corrupt the artifact.
    fn esc(s: &str) -> String {
        s.chars()
            .flat_map(|c| match c {
                '\\' => vec!['\\', '\\'],
                '"' => vec!['\\', '"'],
                '\n' | '\r' | '\t' => vec![' '],
                c if (c as u32) < 0x20 => vec![],
                c => vec![c],
            })
            .collect()
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let ntt_threads = std::env::var("NTT_THREADS").unwrap_or_else(|_| "unset".into());
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"cores\": {cores}, \"ntt_threads\": \"{}\", \"cpu_model\": \"{}\", \
         \"git_commit\": \"{}\", \"ntt_obs\": \"{}\"}}",
        esc(&ntt_threads),
        esc(&cpu_model),
        esc(&git_commit_sha()),
        if ntt_obs::enabled() { "on" } else { "off" },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("T", &["model", "mse"]);
        t.row(&["tiny".into(), "1.0".into()]);
        t.row(&["a-much-longer-name".into(), "22.5".into()]);
        let s = t.render();
        assert!(s.contains("== T =="));
        let lines: Vec<&str> = s.lines().collect();
        // Header and rows start the second column at the same offset.
        let col = |l: &str| {
            l.find("mse")
                .or_else(|| l.find("1.0"))
                .or_else(|| l.find("22.5"))
        };
        assert_eq!(col(lines[1]), col(lines[3]));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn duration_formats() {
        assert_eq!(fmt_duration(5.0), "5.0s");
        assert_eq!(fmt_duration(125.0), "2m05");
        assert_eq!(fmt_duration(3725.0), "1h02");
    }

    #[test]
    fn e3_matches_paper_convention() {
        assert_eq!(fmt_e3(0.000072), "0.072");
        assert_eq!(fmt_e3(0.0152), "15.200");
    }

    #[test]
    fn host_context_is_valid_json_shape() {
        let j = host_context_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"cores\": "));
        assert!(j.contains("\"ntt_threads\": "));
        assert!(j.contains("\"cpu_model\": "));
        assert!(j.contains("\"git_commit\": "));
        assert!(j.contains("\"ntt_obs\": "));
        // No unescaped quote may survive inside the string values: every
        // '"' in the body must be structural or backslash-escaped.
        let body = &j[1..j.len() - 1];
        let mut in_str = false;
        let mut prev = ' ';
        let mut structural = 0;
        for ch in body.chars() {
            if ch == '"' && prev != '\\' {
                in_str = !in_str;
                structural += 1;
            }
            prev = ch;
        }
        assert!(!in_str, "unbalanced quotes in {j}");
        assert_eq!(structural % 2, 0);
    }

    #[test]
    fn git_sha_resolves_in_this_repo() {
        let sha = git_commit_sha();
        // A git checkout must yield a real 40-hex SHA; "unknown" is
        // reserved for non-repo contexts such as a source export.
        if Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../.git")).is_dir() {
            assert_eq!(sha.len(), 40, "unexpected sha {sha:?}");
            assert!(sha.chars().all(|c| c.is_ascii_hexdigit()));
        } else {
            assert_eq!(sha, "unknown");
        }
    }

    #[test]
    fn tsv_roundtrip() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(&["x".into(), "1".into()]);
        let path = t.write_tsv("test_table_tmp").unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, "a\tb\nx\t1\n");
        std::fs::remove_file(path).ok();
    }
}

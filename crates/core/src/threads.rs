//! The one parser for the `NTT_THREADS` environment knob.
//!
//! Every layer that fans work out — the fleet, the trainer, the serving
//! batcher, and the `paper` binary — honors the same environment
//! variable. Before this module each site re-implemented the parse (and
//! its warning) by hand; they drifted in defaults and wording. Callers
//! now state only their default, which is the one thing that
//! legitimately differs: the trainer treats *unset* as sequential
//! (`1`), the `paper` and serving binaries treat it as auto (`0` = one worker
//! per core).

/// `NTT_THREADS`, or `default` when unset or unparsable. An unparsable
/// value warns instead of failing silently: thread counts never change
/// results in this workspace (everything is bit-reproducible at any
/// fan-out), so a typo would otherwise be invisible — only hours of
/// wall-clock would differ.
pub fn env_threads(default: usize) -> usize {
    parse(std::env::var("NTT_THREADS").ok().as_deref(), default)
}

/// The pure half of [`env_threads`], separated so tests never have to
/// mutate the process-global environment (which would race with
/// concurrently running tests and clobber the CI matrix's
/// `NTT_THREADS` setting).
fn parse(raw: Option<&str>, default: usize) -> usize {
    match raw {
        Some(s) => s.parse().unwrap_or_else(|_| {
            eprintln!(
                "warning: NTT_THREADS={s:?} is not an integer; using {default} ({})",
                if default == 0 {
                    "one worker per core"
                } else {
                    "sequential"
                }
            );
            default
        }),
        None => default,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_defaults_and_values() {
        assert_eq!(parse(None, 0), 0);
        assert_eq!(parse(None, 1), 1);
        assert_eq!(parse(Some("6"), 0), 6);
        assert_eq!(parse(Some("6"), 1), 6);
        assert_eq!(parse(Some("0"), 1), 0);
        assert_eq!(
            parse(Some("not-a-number"), 3),
            3,
            "unparsable falls back to default"
        );
    }
}

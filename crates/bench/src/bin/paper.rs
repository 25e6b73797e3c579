//! Regenerates the paper's tables — Fig. 4's datasets, Table 1 (MSE
//! for all models and tasks), Table 2 (fine-tuning cost) and Table 3
//! (the larger topology) — each printed beside the paper's values and
//! written to `results/<table>.tsv`.
//!
//! Run: `cargo run --release -p ntt-bench --bin paper -- [--scale quick|paper]
//! [--seed N] [--threads N] [datasets|table1|table2|table3 ...]` (no
//! table name: all four). Work the tables share runs once.
//!
//! Absolute MSEs differ from the paper (different simulator substrate
//! and scale); the comparisons — who wins, which ablations break — are
//! the reproduced result.

use ntt_bench::report::fmt_duration;
use ntt_bench::runner::{parse_args, Paper, USAGE};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let t0 = Instant::now();
    let mut paper = Paper::new(args.env);
    for name in args.tables {
        let table = paper.table(name);
        println!("{}", table.render());
        match table.write_tsv(name) {
            Ok(p) => eprintln!("[paper] wrote {}", p.display()),
            Err(e) => eprintln!("[paper] {name}.tsv write failed: {e}"),
        }
    }
    eprintln!(
        "[paper] done in {} (MSE cells: MSE / Var(test targets), x1e-3; 1000 = predicting the mean)",
        fmt_duration(t0.elapsed().as_secs_f64())
    );
}

//! Regenerates the paper's tables and figures and the follow-up
//! studies — every row of `ftnoc_bench::rows`.
//!
//! ```sh
//! cargo run -p ftnoc-bench --release --bin experiments                 # every row, paper order
//! cargo run -p ftnoc-bench --release --bin experiments -- fig5 table1  # the named rows
//! FTNOC_SCALE=paper cargo run -p ftnoc-bench --release --bin experiments -- fig5
//! ```
//!
//! An unknown name lists the rows and exits 2. Tables go to stdout,
//! per-point progress to stderr.

use std::io::Write;

use ftnoc_bench::{rows, Scale};

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let selected = rows::select(&names).unwrap_or_else(|msg| {
        eprint!("{msg}");
        std::process::exit(2);
    });
    let scale = Scale::from_env();
    let mut out = std::io::stdout().lock();
    for (i, row) in selected.iter().enumerate() {
        let separated = if i > 0 { writeln!(out) } else { Ok(()) };
        if let Err(e) = separated.and_then(|()| (row.run)(scale, &mut out)) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

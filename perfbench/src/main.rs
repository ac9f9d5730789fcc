//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints a table and the full result row, and ends
//! with the one-line result: `{"correct", "attempted", "failed",
//! "metrics"}`. Exits 1 when an answer or an end-of-run check was
//! wrong, 2 on bad arguments.

use perfbench::{Opts, Workload};

fn usage() -> ! {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut opts: Option<Opts> = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => {
                opts = Some(Opts::new(Workload::parse(&value).unwrap_or_else(|| usage())));
            }
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => trace = value == "1",
            _ => usage(),
        }
    }
    let mut opts = opts.unwrap_or_else(|| usage());
    opts.seed = seed;
    opts.seconds = seconds;
    opts.trace = trace;

    let report = perfbench::run(&opts);
    print!("{}", report.table());
    println!("{}", report.row_json());
    println!("{}", report.result_json());
    if !report.correct() {
        std::process::exit(1);
    }
}

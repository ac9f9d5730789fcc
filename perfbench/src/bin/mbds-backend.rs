//! One MBDS backend as its own OS process, built alongside the
//! benchmark so the socket-transport workload finds it next to the
//! `perfbench` binary. Usage: `mbds-backend <index>`.

fn main() {
    let index: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
        eprintln!("usage: mbds-backend <index>");
        std::process::exit(2);
    });
    mlds::mbds::net::backend_process_main(index);
}

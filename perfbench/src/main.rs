//! `numadag-perfbench --workload NAME --seed N --seconds N --trace 0|1`
//!
//! Runs one benchmark workload and prints, as the last line of standard
//! output, one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end (`--trace 0`) or per-layer (`--trace 1`) metrics. A
//! human-readable summary goes to standard error. Exits 2 on bad
//! arguments and 1 when the workload cannot be set up.

fn main() {
    // The proc backend re-executes this binary as its worker processes.
    numadag_proc::maybe_run_worker();
    numadag_proc::install();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match numadag_perfbench::Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: numadag-perfbench --workload {} --seed N --seconds N --trace 0|1",
                numadag_perfbench::WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    match numadag_perfbench::run(&args) {
        Ok(outcome) => {
            for (name, value) in &outcome.metrics {
                eprintln!("  {name:<32} {value:.4}");
            }
            println!("{}", outcome.to_json_line(args.trace));
        }
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

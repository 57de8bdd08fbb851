//! The `secpb` command-line tool: simulate, crash, recover, size
//! batteries, manage traces, reproduce the paper's tables and figures,
//! and run the CI gates.  Run with no arguments for usage.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match secpb::cli::dispatch(&args) {
        Ok(output) => print!("{output}"),
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    }
}

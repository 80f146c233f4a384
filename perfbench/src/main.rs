//! Runs one benchmark workload; see `README.md` beside this crate.

use std::process::ExitCode;

use wazi_perfbench::args::{Args, USAGE};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("{err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match wazi_perfbench::run(&args) {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("could not write the trace: {err}");
            return ExitCode::from(1);
        }
    };
    println!("{}", outcome.provenance_json());
    println!("{}", outcome.result_json(args.trace));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{} of {} attempts failed or answered wrongly",
            outcome.failed, outcome.attempted
        );
        ExitCode::from(1)
    }
}

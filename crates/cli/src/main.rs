//! `clumsy` — command-line interface to the clumsy packet-processor
//! simulator (reproduction of MICRO-37 2004's "A Case for Clumsy Packet
//! Processors").
//!
//! ```text
//! clumsy run --app route --cr 0.5 --detection parity --strikes 2
//! clumsy sweep --app md5 --packets 5000
//! clumsy model --beta 0.2
//! clumsy metrics metrics.json jobs_total packets_shed
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod commands;
mod json;

use args::Args;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.split_first() {
        // Positional arguments, which the option parser rejects.
        Some((command, rest)) if command == "metrics" => commands::metrics(rest),
        Some(_) => Args::parse(argv)
            .map_err(commands::CliError::from)
            .and_then(|args| commands::dispatch(&args)),
        None => commands::dispatch(&Args::parse(["help".to_string()]).expect("help parses")),
    };
    match result {
        Ok(text) => println!("{text}"),
        Err(e) => {
            eprintln!("error: {e}");
            // Shared exit-code contract (see clumsy_bench): 1 is a
            // runtime failure, 2 a usage error, and 3 an interrupted
            // durable campaign — not a usage error, since it left a
            // resumable journal behind and scripts driving the CLI
            // distinguish "resume me" (3) from "you did it wrong" (2).
            let code = match &e {
                commands::CliError::Interrupted { .. } => clumsy_bench::EXIT_INTERRUPTED,
                commands::CliError::Io { .. } | commands::CliError::Metrics { .. } => {
                    clumsy_bench::EXIT_FAILURES
                }
                commands::CliError::Journal(err) => clumsy_bench::journal_exit_code(err),
                commands::CliError::Args(_)
                | commands::CliError::UnknownCommand(_)
                | commands::CliError::InertOption { .. }
                | commands::CliError::Usage(_) => clumsy_bench::EXIT_USAGE,
            };
            std::process::exit(code);
        }
    }
}

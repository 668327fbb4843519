//! The `uswg` binary: parse the command line, execute, print.
//!
//! Exit codes: 0 success, 2 any failure (usage, I/O, corrupt input,
//! simulation error), 3 `analyze --salvage` succeeded on a truncated file
//! (the report covers the intact prefix only).

#![forbid(unsafe_code)]

use std::io::{self, Write as _};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match uswg_cli::parse_args(args).and_then(uswg_cli::execute_with_status) {
        Ok((text, status)) => {
            // A reader that stopped early (`uswg … | head`) has all it
            // wanted: the command's status stands.
            let mut stdout = io::stdout().lock();
            if let Err(e) = stdout
                .write_all(text.as_bytes())
                .and_then(|()| stdout.flush())
            {
                if e.kind() != io::ErrorKind::BrokenPipe {
                    eprintln!("uswg: writing the report: {e}");
                    std::process::exit(2);
                }
            }
            if status != uswg_cli::EXIT_OK {
                std::process::exit(status);
            }
        }
        Err(e) => {
            eprintln!("uswg: {e}");
            if matches!(e, uswg_cli::CliError::Usage(_)) {
                eprintln!("run `uswg help` for usage");
            }
            std::process::exit(2);
        }
    }
}

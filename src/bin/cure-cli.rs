//! The `cure-cli` command-line tool: generate datasets, build CURE cubes
//! and query them from a shell. See `cure::cli::usage()` for commands.

#![forbid(unsafe_code)]

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cure::cli::parse_args(&args) {
        Ok(cmd) => match cure::cli::run(cmd) {
            Ok(out) => print!("{out}"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        },
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}

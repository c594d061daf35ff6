//! `copernicus-bench` — the multi-call reproduction driver.
//!
//! The first argument picks the command (`repro_all`, `fig05`, `perf`,
//! ...); everything after it is the command's flag list, shared across all
//! of them (see [`copernicus_bench::Cli`]).

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = if !args.is_empty() && !args[0].starts_with('-') {
        args.remove(0)
    } else {
        eprintln!(
            "usage: copernicus-bench <command> [flags]\ncommands: {}",
            copernicus_bench::COMMANDS.join(" ")
        );
        std::process::exit(2);
    };
    std::process::exit(copernicus_bench::run(&cmd, args));
}

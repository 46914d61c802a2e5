//! The untraced runner, and the parent of every run of the whole set.

fn main() -> std::process::ExitCode {
    bgpscale_benchmark::cli::main()
}

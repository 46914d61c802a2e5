//! The traced runner: the same program with simkernel's counting
//! allocator installed, so that spans carry allocation counts. Untraced
//! numbers never come from this binary.

#[global_allocator]
static ALLOC: bgpscale_simkernel::alloc::CountingAlloc = bgpscale_simkernel::alloc::CountingAlloc;

fn main() -> std::process::ExitCode {
    bgpscale_benchmark::cli::main()
}

//! The traced run: the benchmark's interceptors, stamps and spans, and
//! a counting global allocator present only in this binary.

#[global_allocator]
static ALLOC: perfbench::alloc::CountingAlloc = perfbench::alloc::CountingAlloc;

fn main() {
    std::process::exit(perfbench::main_with(true));
}

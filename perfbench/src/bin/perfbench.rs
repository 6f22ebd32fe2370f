//! The end-to-end run: no interceptors, spans or allocation counting.

fn main() {
    std::process::exit(perfbench::main_with(false));
}

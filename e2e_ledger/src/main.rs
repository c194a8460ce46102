//! `e2e`: see [`jsweep_e2e::cli`].

fn main() {
    std::process::exit(jsweep_e2e::cli::main_with(
        std::env::args().skip(1).collect(),
    ));
}

//! Regenerates the paper artifact implemented in
//! [`tcim_bench::figures::fig5`], whose module docs say what it shows.

fn main() {
    let args = tcim_bench::Args::parse();
    let outputs = tcim_bench::figures::fig5::run(&args);
    tcim_bench::emit(&args, &outputs);
}

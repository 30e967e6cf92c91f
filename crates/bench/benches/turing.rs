//! E9 — per-step cost of the GOOD Turing machine simulation vs the
//! direct interpreter, over input length (binary increment).

use good_bench::harness::Bench;
use good_turing::machine::binary_increment;
use good_turing::run_in_good;

fn main() {
    Bench::run("turing", &[], |bench| {
        let machine = binary_increment();
        for bits in [4usize, 8, 16] {
            let input = "1".repeat(bits);
            bench.time(&format!("interpreter/{bits}"), || {
                machine.run(&input, 100_000)
            });
            bench.time(&format!("good-simulation/{bits}"), || {
                run_in_good(&machine, &input, 10_000_000).expect("halts")
            });
        }
    });
}

//! Regenerates Table II: application energy estimates vs the RTL-level
//! reference, for the ten held-out applications with custom instructions.

pub fn run() {
    let c = emx_bench::characterize_default();
    let rows = emx_bench::table2_rows(&c.model);
    println!("Table II — application energy estimates: accuracy results\n");
    print!("{}", emx_bench::format_table2(&rows));
    println!("paper: max |error| = 8.5%, mean |error| = 3.3%");
}

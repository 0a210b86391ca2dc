//! Regenerates Fig. 3: fitting error of the 25 characterization test
//! programs.

pub fn run() {
    let c = emx_bench::characterize_default();
    println!("Fig. 3 — fitting error of the test programs\n");
    println!(
        "{:<4} {:<16} {:>14} {:>14} {:>9}",
        "#", "program", "reference (uJ)", "fitted (uJ)", "err (%)"
    );
    for (i, s) in c.fit.sample_errors().iter().enumerate() {
        println!(
            "{:<4} {:<16} {:>14.2} {:>14.2} {:>+9.2}",
            i + 1,
            s.label,
            s.observed * 1e-6,
            s.fitted * 1e-6,
            s.percent
        );
    }
    println!(
        "\nmax |error| = {:.2}%   rms = {:.2}%   R^2 = {:.5}",
        c.fit.max_abs_percent_error(),
        c.fit.rms_percent_error(),
        c.fit.r_squared()
    );
    println!("paper: max < 8.9%, rms = 3.8%");
}

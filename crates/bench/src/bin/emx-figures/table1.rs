//! Regenerates Table I: the fitted energy coefficients of the
//! characterized emx processor.

use emx_hwlib::Category;

pub fn run() {
    let c = emx_bench::characterize_default();

    println!("Table I — energy coefficients of the characterized emx processor");
    println!("(all values in pJ; per cycle, per event, or per unit f(C)·activation)\n");
    println!(
        "{:<16} {:<42} {:>10}",
        "coefficient", "description", "value"
    );

    let descriptions: &[(&str, &str)] = &[
        ("alpha_A", "arithmetic instruction (per cycle)"),
        ("alpha_L", "load instruction (per cycle)"),
        ("alpha_S", "store instruction (per cycle)"),
        ("alpha_J", "jump instruction (per cycle)"),
        ("alpha_Bt", "branch taken (per cycle)"),
        ("alpha_Bu", "branch untaken (per cycle)"),
        ("beta_icm", "instruction cache miss (per miss)"),
        ("beta_dcm", "data cache miss (per miss)"),
        ("beta_ucf", "uncached instruction fetch (per fetch)"),
        ("beta_ilk", "processor interlock (per stall)"),
        ("gamma_CI", "custom-instruction side effects (per cycle)"),
    ];
    for (name, desc) in descriptions {
        let v = c.model.coefficient(name).expect("paper template");
        println!("{name:<16} {desc:<42} {v:>10.1}");
    }
    for cat in Category::ALL {
        let name = format!("delta_{}", cat.var_name());
        let v = c.model.coefficient(&name).expect("paper template");
        println!(
            "{name:<16} {:<42} {v:>10.1}",
            format!("custom {} (per f(C)-weighted activation)", cat.paper_name()),
        );
    }

    println!(
        "\nfit: R^2 = {:.5}, rms error = {:.2}%, max |error| = {:.2}%  ({} training programs)",
        c.fit.r_squared(),
        c.fit.rms_percent_error(),
        c.fit.max_abs_percent_error(),
        c.fit.sample_errors().len(),
    );
    println!("paper's structural ordering: shifter > custom reg ~ TIE mac > TIE mult > mult > +/- > TIE add > csa > table > logic");
}

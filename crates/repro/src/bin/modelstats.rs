//! Diagnostic: the eight Figure 4 variables for every observation, with the
//! ensemble mean/std — used to calibrate model parameters.

use wl_repro::{suite_stats, table3_suite, Options};
use wl_swf::Variable;

fn main() {
    let (opts, _obs) = Options::from_args();
    let workloads = table3_suite(&opts);
    let stats = suite_stats(&workloads);
    let codes = ["Rm", "Ri", "Nm", "Ni", "Cm", "Ci", "Im", "Ii"];
    print!("{:<16}", "obs");
    for c in codes {
        print!("{c:>10}");
    }
    println!();
    for s in &stats {
        print!("{:<16}", s.name);
        for c in codes {
            let v = s.get(Variable::from_code(c).unwrap()).unwrap_or(f64::NAN);
            print!("{:>10.1}", v);
        }
        println!();
    }
    print!("{:<16}", "MEAN");
    for c in codes {
        let vs: Vec<f64> = stats
            .iter()
            .filter_map(|s| s.get(Variable::from_code(c).unwrap()))
            .collect();
        print!("{:>10.1}", wl_stats::mean(&vs));
    }
    println!();
    print!("{:<16}", "STD");
    for c in codes {
        let vs: Vec<f64> = stats
            .iter()
            .filter_map(|s| s.get(Variable::from_code(c).unwrap()))
            .collect();
        print!("{:>10.1}", wl_stats::std_dev(&vs));
    }
    println!();
}

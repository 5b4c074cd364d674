//! Rendering a run for the paper's figures: hours, CSV and the epoch table.

use vc_runtime::{RuntimeReport, SimOutcome};

/// Simulated training hours of a run (the x-axis of Figures 2–6).
pub fn hours(report: &RuntimeReport) -> f64 {
    report.wall_s / 3600.0
}

/// Renders a set of labelled runs as one long-format CSV:
/// `label,epoch,alpha,hours,mean_acc,min_acc,max_acc,test_acc`.
pub fn runs_to_csv(runs: &[(String, SimOutcome)]) -> String {
    let mut out = String::from("label,epoch,alpha,hours,mean_acc,min_acc,max_acc,test_acc\n");
    for (label, run) in runs {
        for (i, e) in run.report.epochs.iter().enumerate() {
            out.push_str(&format!(
                "{label},{},{:.4},{:.4},{:.4},{:.4},{:.4},{}\n",
                e.epoch,
                e.alpha,
                e.end_wall_s / 3600.0,
                e.mean_val_acc,
                e.min_val_acc,
                e.max_val_acc,
                run.test_acc
                    .get(i)
                    .map(|t| format!("{t:.4}"))
                    .unwrap_or_default(),
            ));
        }
    }
    out
}

/// Prints an epoch table for one run, paper-style.
pub fn print_run(label: &str, report: &RuntimeReport) {
    println!("## {label}");
    println!(
        "{:>5} {:>7} {:>8} {:>7} {:>7} {:>7}",
        "epoch", "alpha", "hours", "mean", "min", "max"
    );
    for e in &report.epochs {
        println!(
            "{:>5} {:>7.3} {:>8.3} {:>7.3} {:>7.3} {:>7.3}",
            e.epoch,
            e.alpha,
            e.end_wall_s / 3600.0,
            e.mean_val_acc,
            e.min_val_acc,
            e.max_val_acc
        );
    }
    println!(
        "   => total {:.2} h, final val {:.3}, test {:.3}, lost updates {}, timeouts {}\n",
        hours(report),
        report.final_val_acc,
        report.final_test_acc,
        report.store_ops.lost_updates,
        report.server_metrics.timeouts
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_table1;
    use vc_asgd::JobConfig;

    #[test]
    fn csv_has_header_and_rows() {
        let mut job = JobConfig::test_small(1);
        job.track_test_acc = true;
        let run = run_table1(job);
        let label = run.report.label.clone();
        let csv = runs_to_csv(&[(label.clone(), run)]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4, "header plus one row per epoch");
        assert!(lines[0].starts_with("label,epoch,"));
        for (i, line) in lines[1..].iter().enumerate() {
            let cols: Vec<&str> = line.split(',').collect();
            assert_eq!(cols.len(), 8, "{line}");
            assert_eq!(cols[0], label);
            assert_eq!(cols[1], (i + 1).to_string());
            assert!(!cols[7].is_empty(), "tracked test accuracy: {line}");
        }
        assert!(lines[1].starts_with(&format!("{label},1,0.6000,")));
    }
}

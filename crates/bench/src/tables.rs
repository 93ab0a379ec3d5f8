//! Plain-text table rendering for experiment output.
//!
//! The harness prints the same rows/columns the paper's tables report so
//! shapes can be compared side by side.

use lyra_sim::SimReport;
use std::fmt::Write as _;

/// Renders a column-aligned table; the first row is the header.
pub fn render(rows: &[Vec<String>]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let cols = rows.iter().map(|r| r.len()).max().unwrap_or(0);
    let mut widths = vec![0usize; cols];
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let mut out = String::new();
    for (ri, row) in rows.iter().enumerate() {
        for (i, cell) in row.iter().enumerate() {
            let pad = widths[i] - cell.chars().count();
            out.push_str(cell);
            for _ in 0..pad + 2 {
                out.push(' ');
            }
        }
        out.push('\n');
        if ri == 0 {
            let total: usize = widths.iter().map(|w| w + 2).sum();
            for _ in 0..total {
                out.push('-');
            }
            out.push('\n');
        }
    }
    out
}

/// Formats seconds with no decimals (the paper's tables use integral
/// seconds).
pub fn secs(v: f64) -> String {
    format!("{v:.0}")
}

/// Formats a ratio as a percentage with two decimals.
pub fn pct(v: f64) -> String {
    format!("{:.2}%", v * 100.0)
}

/// Formats a fraction with two decimals (usage columns).
pub fn frac(v: f64) -> String {
    format!("{v:.2}")
}

/// The Table 5 row for one report: queuing (mean/median/95), JCT
/// (mean/median/95), training usage, overall usage, preemption ratio.
pub fn table5_row(label: &str, r: &SimReport, loaning: bool) -> Vec<String> {
    vec![
        label.to_string(),
        secs(r.queuing.mean),
        secs(r.queuing.p50),
        secs(r.queuing.p95),
        secs(r.jct.mean),
        secs(r.jct.p50),
        secs(r.jct.p95),
        frac(r.training_usage),
        if loaning {
            frac(r.overall_usage)
        } else {
            "NA".to_string()
        },
        if loaning {
            pct(r.preemption_ratio)
        } else {
            "NA".to_string()
        },
    ]
}

/// The Table 5 header.
pub fn table5_header() -> Vec<String> {
    [
        "Scheme", "QT mean", "QT p50", "QT p95", "JCT mean", "JCT p50", "JCT p95", "Train",
        "Overall", "Preempt",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// The Table 8 row: queuing and JCT percentiles 50/75/95/99.
pub fn table8_row(label: &str, r: &SimReport) -> Vec<String> {
    vec![
        label.to_string(),
        secs(r.queuing.p50),
        secs(r.queuing.p75),
        secs(r.queuing.p95),
        secs(r.queuing.p99),
        secs(r.jct.p50),
        secs(r.jct.p75),
        secs(r.jct.p95),
        secs(r.jct.p99),
    ]
}

/// The Table 8 header.
pub fn table8_header() -> Vec<String> {
    [
        "Scheme", "QT p50", "QT p75", "QT p95", "QT p99", "JCT p50", "JCT p75", "JCT p95",
        "JCT p99",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Renders a figure-style series as `x  y` pairs with a title line.
pub fn render_series(title: &str, xs: &[f64], ys: &[f64]) -> String {
    let mut out = format!("# {title}\n");
    for (x, y) in xs.iter().zip(ys) {
        writeln!(out, "{x:.3}\t{y:.4}").expect("string write cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lyra_sim::Percentiles;

    fn dummy_report() -> SimReport {
        SimReport {
            name: "x".into(),
            queuing: Percentiles {
                mean: 100.0,
                p50: 50.0,
                p75: 75.0,
                p95: 95.0,
                p99: 99.0,
            },
            jct: Percentiles {
                mean: 1000.0,
                p50: 500.0,
                p75: 750.0,
                p95: 950.0,
                p99: 990.0,
            },
            training_usage: 0.861,
            overall_usage: 0.652,
            on_loan_usage: 0.93,
            on_loan_server_usage: 0.95,
            hourly_on_loan_server_usage: vec![],
            preemption_ratio: 0.1224,
            collateral_damage: 0.05,
            flex_satisfied: 0.535,
            completed: 10,
            submitted: 10,
            loan_ops: 1,
            reclaim_ops: 1,
            scaling_ops: 2,
            rm_ops: 3,
            control_plane_latency_s: 12.0,
            hourly_overall_usage: vec![],
            hourly_on_loan_usage: vec![],
            on_loan_queuing: Percentiles::default(),
            on_loan_jct: Percentiles::default(),
            fault: lyra_sim::FaultStats::default(),
            deadlines: lyra_sim::DeadlineStats::default(),
            records: vec![],
            events: vec![],
            profile: lyra_obs::Profile::default(),
            attribution: lyra_obs::AttributionSummary::default(),
            telemetry: lyra_obs::Telemetry::default(),
            provenance: lyra_obs::ProvenanceGraph::default(),
        }
    }

    #[test]
    fn render_aligns_columns() {
        let rows = vec![
            vec!["a".into(), "long-header".into()],
            vec!["longer-cell".into(), "b".into()],
        ];
        let s = render(&rows);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with('-'));
        // Both data columns aligned: "b" starts at the same offset as
        // "long-header".
        assert_eq!(lines[0].find("long-header"), lines[2].find('b'));
    }

    #[test]
    fn table5_row_formats() {
        let row = table5_row("Lyra", &dummy_report(), true);
        assert_eq!(row[0], "Lyra");
        assert_eq!(row[1], "100");
        assert_eq!(row[7], "0.86");
        assert_eq!(row[9], "12.24%");
        let row = table5_row("Gandiva", &dummy_report(), false);
        assert_eq!(row[8], "NA");
        assert_eq!(row[9], "NA");
    }

    #[test]
    fn table8_row_has_percentiles() {
        let row = table8_row("AFS", &dummy_report());
        assert_eq!(row[2], "75");
        assert_eq!(row[8], "990");
        assert_eq!(table8_header().len(), row.len());
        assert_eq!(table5_header().len(), 10);
    }

    #[test]
    fn series_renders_pairs() {
        let s = render_series("t", &[1.0, 2.0], &[0.5, 0.7]);
        assert!(s.starts_with("# t\n"));
        assert_eq!(s.lines().count(), 3);
    }

    #[test]
    fn empty_table_is_empty() {
        assert_eq!(render(&[]), "");
    }
}

//! Statistics helpers and `/proc` parsers.
//!
//! Every end-to-end number the benchmark reports is a median over repeated
//! samples (never one timing), so these few functions decide what the
//! regression gate sees; they are unit-tested below.

use std::time::Instant;

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest percentile not above `wanted` that still has at least ten
/// samples beyond it, as `(value, percentile actually used)`.  With fewer
/// than eleven samples nothing qualifies and the median is returned.
pub fn tail_percentile(values: &[f64], wanted: f64) -> (f64, f64) {
    let n = values.len();
    if n < 11 {
        return (median(values), 50.0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // Index of the wanted percentile (nearest rank), pulled down until ten
    // samples lie strictly beyond it.
    let rank = ((wanted / 100.0) * n as f64).ceil() as usize;
    let index = rank.clamp(1, n) - 1;
    let index = index.min(n - 11);
    (v[index], 100.0 * (index + 1) as f64 / n as f64)
}

/// Per-segment rates `units[i] / seconds between marks i and i+1`, reduced
/// to their median: one noisy-neighbour burst moves one segment, not the
/// reported rate.
pub fn segment_median_rate(marks: &[Instant], units: &[f64]) -> f64 {
    median(&segment_rates(marks, units))
}

/// The per-segment rates behind [`segment_median_rate`].
pub fn segment_rates(marks: &[Instant], units: &[f64]) -> Vec<f64> {
    marks
        .windows(2)
        .zip(units)
        .map(|(w, u)| u / w[1].duration_since(w[0]).as_secs_f64())
        .collect()
}

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may itself contain spaces and parentheses,
/// so fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) in KiB from the text of `/proc/<pid>/status`.
pub fn parse_status_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// CPU ticks consumed so far by process `pid`.
pub fn cpu_ticks(pid: u32) -> Option<u64> {
    parse_stat_cpu_ticks(&std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

/// Peak resident set of process `pid` in MiB.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let kib = parse_status_hwm_kib(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?)?;
    Some(kib as f64 / 1024.0)
}

/// Sum of one prometheus series over a text snapshot: every line whose
/// name is `name` and whose label set contains `label` (empty = any).
pub fn prom_sum(snapshot: &str, name: &str, label: &str) -> f64 {
    snapshot
        .lines()
        .filter(|l| {
            l.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with(' ') || rest.starts_with('{'))
                && l.contains(label)
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 1000 samples: p99 has ten beyond it (990th of 1000 → 10 above).
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (value, pct) = tail_percentile(&v, 99.0);
        assert_eq!(value, 990.0);
        assert_eq!(pct, 99.0);
        // 100 samples: p99 would leave one sample beyond; the rule pulls the
        // answer down to the 90th value (ten beyond).
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct) = tail_percentile(&v, 99.0);
        assert_eq!(value, 90.0);
        assert_eq!(pct, 90.0);
        // Too few samples for any tail: the median.
        let (value, pct) = tail_percentile(&[1.0, 2.0, 3.0], 99.0);
        assert_eq!((value, pct), (2.0, 50.0));
    }

    #[test]
    fn segment_median_ignores_one_slow_segment() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // Three segments of 100 units: 100 ms, 100 ms, and one 1 s stall.
        let marks = [at(0), at(100), at(200), at(1200)];
        let rate = segment_median_rate(&marks, &[100.0, 100.0, 100.0]);
        assert!((rate - 1000.0).abs() < 1e-6, "{rate}");
    }

    #[test]
    fn stat_parser_survives_hostile_command_names() {
        let stat = "4242 (a b) c) S 1 2 3 4 5 6 7 8 9 10 700 300 0 0 20 0 1 0 5 6 7";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(1000));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_parser_reads_hwm() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_hwm_kib(status), Some(2048));
        assert_eq!(parse_status_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn own_process_is_readable() {
        assert!(cpu_ticks(std::process::id()).is_some());
        assert!(peak_rss_mib(std::process::id()).is_some_and(|m| m > 0.0));
    }

    #[test]
    fn prom_sum_selects_by_name_and_label() {
        let snap = "# HELP x y\n\
                    dissent_round_phase_seconds_sum{phase=\"commit\"} 1.5\n\
                    dissent_round_phase_seconds_sum{phase=\"certify\"} 2.5\n\
                    dissent_round_phase_seconds_summary 9\n\
                    dissent_transport_frames_total{dir=\"sent\"} 7\n\
                    dissent_transport_frames_total{dir=\"received\"} 5\n";
        let commit = prom_sum(snap, "dissent_round_phase_seconds_sum", "phase=\"commit\"");
        assert_eq!(commit, 1.5);
        assert_eq!(prom_sum(snap, "dissent_transport_frames_total", ""), 12.0);
    }
}

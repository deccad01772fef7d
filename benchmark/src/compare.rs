//! `benchmark compare A B`: two result sets (directories `suite --out`
//! wrote), one row per workload × end-to-end metric, plus one line per
//! workload saying whether the deterministic outcomes of same-seed reps
//! agree (they must between two builds of one commit; a protocol change
//! shows there first).

use crate::json::Json;
use crate::spec;
use crate::stats::{median, quartiles};
use crate::workloads::Workload;
use std::path::Path;
use std::process::ExitCode;

/// The untraced runs of one workload in a result set.
struct Runs {
    records: Vec<Json>,
}

fn load(dir: &Path, w: Workload) -> Result<Runs, String> {
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.file_name().to_string_lossy().into_owned()))
        .filter(|n| n.starts_with(&format!("{}.s", w.name())) && n.ends_with(".json"))
        .collect();
    names.sort();
    let records = names
        .iter()
        .map(|n| {
            let path = dir.join(n);
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Runs { records })
}

impl Runs {
    fn values(&self, metric: &str) -> Vec<f64> {
        self.records
            .iter()
            .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
            .collect()
    }

    /// Same-seed runs of the two sets, rep by rep: how many deterministic
    /// outcomes (every counter, every virtual-time figure) were compared,
    /// and where the first pair differs.
    fn exact_against(&self, other: &Runs) -> (usize, Option<String>) {
        let mut compared = 0;
        for a in &self.records {
            let seed = a.get("seed");
            let Some(b) = other.records.iter().find(|b| b.get("seed") == seed) else { continue };
            let outcomes = |r: &Json| r.get("outcomes").map_or(&[][..], Json::items).to_vec();
            for (i, (x, y)) in outcomes(a).iter().zip(&outcomes(b)).enumerate() {
                if x != y {
                    let seed = seed.and_then(Json::as_f64).unwrap_or(f64::NAN);
                    return (compared, Some(format!("seed {seed} rep {i}")));
                }
                compared += 1;
            }
        }
        (compared, None)
    }

    fn incorrect(&self) -> bool {
        self.records.iter().any(|r| r.get("correct") != Some(&Json::Bool(true)))
    }
}

/// The verdict on one row.
fn verdict(a: &[f64], b: &[f64], bound: f64) -> &'static str {
    let spread = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        (q3 - q1) / median(v)
    };
    if spread(a) > bound || spread(b) > bound {
        return "unresolved";
    }
    // Every end-to-end metric is better when lower.
    let change = median(b) / median(a) - 1.0;
    if change > bound {
        "worse"
    } else if change < -bound {
        "better"
    } else {
        "unchanged"
    }
}

/// Print the table; exit 1 when any row is `worse`.
pub fn compare(a: &Path, b: &Path) -> Result<ExitCode, String> {
    println!(
        "{:<16} {:<12} {:>12} {:>24} {:>12} {:>24} {:>6}  verdict",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "bound"
    );
    let mut worse = false;
    for w in Workload::ALL {
        let (ra, rb) = (load(a, w)?, load(b, w)?);
        if ra.records.is_empty() && rb.records.is_empty() {
            continue;
        }
        if ra.records.len() < 2 || rb.records.len() < 2 {
            return Err(format!("{}: a set needs at least 2 runs to have quartiles", w.name()));
        }
        if ra.incorrect() || rb.incorrect() {
            return Err(format!("{}: a run in one of the sets was not correct", w.name()));
        }
        match ra.exact_against(&rb) {
            (0, None) => println!("{:<16} no seed in common: nothing to compare exactly", w.name()),
            (n, None) => {
                println!("{:<16} {n} same-seed reps: counters and virtual time equal", w.name())
            }
            (_, Some(at)) => println!("{:<16} counters or virtual time DIFFER at {at}", w.name()),
        }
        for m in spec::END_TO_END {
            let (va, vb) = (ra.values(m.name), rb.values(m.name));
            let v = verdict(&va, &vb, m.bound);
            worse |= v == "worse";
            let (qa, qb) = (quartiles(&va), quartiles(&vb));
            println!(
                "{:<16} {:<12} {:>12.6} {:>24} {:>12.6} {:>24} {:>6}  {v}",
                w.name(),
                m.name,
                median(&va),
                format!("{:.6}..{:.6}", qa.0, qa.1),
                median(&vb),
                format!("{:.6}..{:.6}", qb.0, qb.1),
                m.bound,
            );
        }
    }
    Ok(if worse { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn verdicts() {
        let a = [1.00, 1.01, 0.99, 1.00];
        assert_eq!(verdict(&a, &a, 0.1), "unchanged");
        assert_eq!(verdict(&a, &a.map(|x| x * 1.2), 0.1), "worse");
        assert_eq!(verdict(&a, &a.map(|x| x * 0.8), 0.1), "better");
        assert_eq!(verdict(&a, &[0.5, 1.0, 1.5, 2.0], 0.1), "unresolved");
    }
}

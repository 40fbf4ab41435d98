//! Output checks shared by the workloads. A failed check counts the job
//! as failed, the same as a job that errored.

use elivagar_repro::circuit::Circuit;
use elivagar_repro::device::Device;
use elivagar_repro::elivagar::SearchResult;

/// An accuracy must be a finite fraction.
pub fn accuracy(what: &str, value: f64) -> Result<(), String> {
    if value.is_finite() && (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(format!("{what} {value} is not a finite fraction"))
    }
}

/// Every two-qubit gate of a physical circuit acts on a coupled pair.
pub fn routed(physical: &Circuit, device: &Device) -> Result<(), String> {
    for ins in physical.instructions() {
        if let [a, b] = ins.qubits[..] {
            if device.topology().edge_index(a, b).is_none() {
                return Err(format!("two-qubit gate on uncoupled qubits {a}, {b}"));
            }
        }
    }
    Ok(())
}

/// Checks one search result: funnel conservation, RepCap only on CNR
/// survivors, and the winner being the arg-max of the finite scores.
pub fn search(result: &SearchResult, candidates: usize) -> Result<(), String> {
    let f = &result.stats.funnel;
    if let Some(v) = f.invariant_violation() {
        return Err(format!("funnel: {v}"));
    }
    if f.generated != candidates as u64 || f.unrouted != 0 {
        return Err(format!(
            "funnel: generated {} (unrouted {}) for {} candidates",
            f.generated, f.unrouted, candidates
        ));
    }
    if f.generated != f.cnr_accepted + f.cnr_rejected + f.cnr_quarantined {
        return Err("funnel: generated != CNR accepted + rejected + quarantined".into());
    }
    let with_repcap = result.scored.iter().filter(|s| s.repcap.is_some()).count() as u64;
    if result
        .scored
        .iter()
        .any(|s| s.repcap.is_some() && s.cnr.is_none())
    {
        return Err("RepCap ran on a candidate without a CNR value".into());
    }
    if with_repcap + f.repcap_quarantined != f.cnr_accepted {
        return Err(format!(
            "RepCap ran on {with_repcap} (+{} quarantined) candidates, CNR accepted {}",
            f.repcap_quarantined, f.cnr_accepted
        ));
    }
    let best = result
        .scored
        .iter()
        .filter_map(|s| s.score.filter(|v| v.is_finite()))
        .max_by(f64::total_cmp)
        .ok_or("no finite composite score")?;
    if !result
        .scored
        .iter()
        .any(|s| s.candidate == result.best && s.score == Some(best))
    {
        return Err(format!(
            "winner #{} does not hold the best finite score {best}",
            result.best_index
        ));
    }
    if result.executions.total() != result.executions.cnr + result.executions.repcap
        || result.executions.cnr == 0
        || (result.executions.repcap == 0) != (with_repcap == 0)
    {
        return Err(format!("execution accounting {:?}", result.executions));
    }
    Ok(())
}

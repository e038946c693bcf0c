//! Reconciliation: per-layer parts against the end-to-end total they
//! should add up to, within a tolerance the benchmark states.

/// One reconciliation: named parts, the total they should sum to, and
/// the share of the total by which they may differ.
pub struct Recon {
    pub workload: &'static str,
    pub what: &'static str,
    pub unit: &'static str,
    pub parts: Vec<(&'static str, f64)>,
    pub total_name: &'static str,
    pub total: f64,
    pub tolerance: f64,
}

impl Recon {
    pub fn sum(&self) -> f64 {
        self.parts.iter().map(|p| p.1).sum()
    }

    /// (sum of parts − total) / total.
    pub fn residual(&self) -> f64 {
        if self.total == 0.0 {
            return if self.sum() == 0.0 { 0.0 } else { f64::INFINITY };
        }
        (self.sum() - self.total) / self.total
    }

    pub fn ok(&self) -> bool {
        self.residual().abs() <= self.tolerance
    }

    /// The one-line JSON record printed before the result line.
    pub fn to_json(&self) -> String {
        let parts: Vec<String> =
            self.parts.iter().map(|(n, v)| format!("\"{n}\": {}", crate::num(*v))).collect();
        format!(
            "{{\"reconcile\": \"{}\", \"what\": \"{}\", \"unit\": \"{}\", \"parts\": {{{}}}, \
             \"sum\": {}, \"{}\": {}, \"residual\": {}, \"tolerance\": {}, \"ok\": {}}}",
            self.workload,
            self.what,
            self.unit,
            parts.join(", "),
            crate::num(self.sum()),
            self.total_name,
            crate::num(self.total),
            crate::num(self.residual()),
            self.tolerance,
            self.ok()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recon(parts: Vec<(&'static str, f64)>, total: f64, tolerance: f64) -> Recon {
        Recon { workload: "w", what: "t", unit: "s", parts, total_name: "total", total, tolerance }
    }

    #[test]
    fn residual_is_signed_share_of_total() {
        let r = recon(vec![("a", 0.6), ("b", 0.5)], 1.0, 0.05);
        assert!((r.residual() - 0.1).abs() < 1e-12);
        assert!(!r.ok(), "10% over a 5% tolerance");
        let r = recon(vec![("a", 0.48), ("b", 0.49)], 1.0, 0.05);
        assert!((r.residual() + 0.03).abs() < 1e-12);
        assert!(r.ok());
    }

    #[test]
    fn zero_total() {
        assert!(recon(vec![("a", 0.0)], 0.0, 0.0).ok());
        assert!(!recon(vec![("a", 1.0)], 0.0, 0.5).ok());
    }

    #[test]
    fn json_names_total_and_parts() {
        let j = recon(vec![("a", 1.0)], 1.0, 0.1).to_json();
        assert!(j.contains("\"total\": 1"), "{j}");
        assert!(j.contains("\"ok\": true"), "{j}");
    }
}

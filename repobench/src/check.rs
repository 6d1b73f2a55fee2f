//! Output checks: per-operation invariants, exact output digests and the
//! failure accounting behind `attempted` / `failed`.

/// Counts operations and the ones that failed. An operation fails on an
/// `Err`, a panic, or a failed output check; every violation is kept (the
/// first few are printed) so a failure explains itself.
#[derive(Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

impl Checker {
    /// Record one operation with the violations its checks found.
    pub fn op(&mut self, violations: Vec<String>) {
        self.attempted += 1;
        if !violations.is_empty() {
            self.failed += 1;
            self.violations.extend(violations);
        }
    }

    /// Record `count` operations that all failed for one reason (a whole
    /// run that returned `Err` or panicked).
    pub fn failed_ops(&mut self, count: u64, why: String) {
        self.attempted += count;
        self.failed += count;
        self.violations.push(why);
    }

    /// A check that spans operations (a digest, a counter cross-check): a
    /// mismatch marks one more operation failed.
    pub fn require(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.violations.push(why());
        }
    }
}

/// An order-sensitive FNV-1a digest over the simulated outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Check `digest` against the value pinned for the default seed; other
/// seeds are held out and run the invariant checks only.
pub fn check_digest(checker: &mut Checker, workload: &str, digest: u64, pinned: Option<u64>) {
    if let Some(expected) = pinned {
        checker.require(digest == expected, || {
            format!("{workload}: output digest {digest:#018x} != pinned {expected:#018x}")
        });
    }
}

/// `x` equals `y` up to a relative `tol` (for float identities such as
/// routed + unroutable demand = offered demand).
pub fn close(x: f64, y: f64, tol: f64) -> bool {
    (x - y).abs() <= tol * x.abs().max(y.abs()).max(1.0)
}

/// Median of `values` (mean of the middle pair for even counts).
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

/// Nearest-rank percentile `p` (0–100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perturbed_digest_is_caught() {
        let outputs = [(1024u64, 2048u64), (1536, 2048)];
        let digest = |rows: &[(u64, u64)]| {
            let mut d = Digest::default();
            for &(a, b) in rows {
                d.u64(a);
                d.u64(b);
            }
            d.value()
        };
        let pinned = digest(&outputs);
        let mut ok = Checker::default();
        check_digest(&mut ok, "w", digest(&outputs), Some(pinned));
        assert_eq!(ok.failed, 0);

        let mut perturbed = outputs;
        perturbed[1].0 += 1;
        let mut bad = Checker::default();
        check_digest(&mut bad, "w", digest(&perturbed), Some(pinned));
        assert_eq!(bad.failed, 1);
        assert!(bad.violations[0].contains("digest"));

        // Held-out seeds pin nothing.
        let mut held_out = Checker::default();
        check_digest(&mut held_out, "w", digest(&perturbed), None);
        assert_eq!(held_out.failed, 0);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        a.u64(1);
        a.u64(2);
        let mut b = Digest::default();
        b.u64(2);
        b.u64(1);
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn checker_counts_operations_and_failures() {
        let mut c = Checker::default();
        c.op(vec![]);
        c.op(vec![
            "epoch 3: offered != delivered + dropped + unroutable".into()
        ]);
        c.failed_ops(4, "run panicked".into());
        assert_eq!((c.attempted, c.failed), (6, 5));
    }

    #[test]
    fn quantiles() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(percentile(&v, 80.0), 4.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
    }
}

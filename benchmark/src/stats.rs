//! Order statistics and the order-insensitive result digest.

use gql_core::Graph;
use std::fmt::{self, Write as _};

/// Linear-interpolated percentile `p` in `[0, 1]` of `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let rank = p * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(&sorted(xs.to_vec()), 0.5)
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// computes them (the "exclusive" method) — the definition the spread
/// rule in the README is stated in. Needs at least two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let q = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    Some((q(1), q(3)))
}

/// Order-insensitive multiset digest of a query result: the number of
/// graphs plus the wrapping sum of a 64-bit hash of each graph's text
/// rendering. Two results agree iff they hold the same graphs, in any
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    pub count: u64,
    pub sum: u64,
}

impl Digest {
    pub fn of_graphs<'a>(graphs: impl IntoIterator<Item = &'a Graph>) -> Digest {
        let mut d = Digest::default();
        for g in graphs {
            d.count += 1;
            d.sum = d.sum.wrapping_add(hash_display(g));
        }
        d
    }

    pub fn of_bytes(bytes: &[u8]) -> Digest {
        let mut h = Fnv64::default();
        h.update(bytes);
        Digest {
            count: bytes.len() as u64,
            sum: h.0,
        }
    }

    pub fn parse(line: &str) -> Option<Digest> {
        let (count, sum) = line.trim().split_once(' ')?;
        Some(Digest {
            count: count.parse().ok()?,
            sum: u64::from_str_radix(sum, 16).ok()?,
        })
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {:016x}", self.count, self.sum)
    }
}

/// FNV-1a, streamed: `Display` output is hashed as it is produced, so
/// digesting a thousand-graph result allocates nothing.
pub struct Fnv64(pub u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl fmt::Write for Fnv64 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

pub fn hash_display(v: &impl fmt::Display) -> u64 {
    let mut h = Fnv64::default();
    let _ = write!(h, "{v}");
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some((1.0, 4.0)));
        assert_eq!(median(&[4.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn digest_ignores_order_but_not_content() {
        let mut a = Graph::new();
        a.add_labeled_node("A");
        let mut b = Graph::new();
        b.add_labeled_node("B");
        assert_eq!(Digest::of_graphs([&a, &b]), Digest::of_graphs([&b, &a]));
        assert_ne!(Digest::of_graphs([&a, &b]), Digest::of_graphs([&a, &a]));
        let d = Digest::of_graphs([&a, &b]);
        assert_eq!(Digest::parse(&d.to_string()), Some(d));
    }
}

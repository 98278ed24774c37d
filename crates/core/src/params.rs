//! Theory-guided parameter derivation for the allocation schemes.
//!
//! Section 4 fixes the asymptotics:
//!
//! * **one-choice** (Theorem 1): average load `λ = log P · log log P`, bin
//!   size `B = λ + O(√(λ log n))`, so codes take `Θ(log log P)` bits and
//!   `hmax = Θ(w / log log P)`;
//! * **Iceberg\[2\]** (Theorem 3): `λ = log log P · log log log P`, front cap
//!   `(1+o(1))λ`, back contribution `log log n + O(1)`, so codes take
//!   `Θ(log log log P)` bits and `hmax = Θ(w / log log log P)`.
//!
//! The `o(1)`/`O(1)` slack terms matter enormously at simulation scales
//! (`log log log P ≈ 2` for any feasible `P`!), so the derivations here make
//! the constants explicit and report the resulting *effective* resource
//! augmentation `δ_eff = 1 − m/P`. Experiments `T-thm1`/`T-thm3` sweep `P`
//! and verify (a) zero observed paging failures at the derived parameters
//! and (b) the bits-per-code gap between the two schemes widening with `P`.

#[inline]
fn lg2(x: f64) -> f64 {
    x.max(2.0).log2()
}

/// Bits needed to distinguish `values` code points (≥ 1).
#[inline]
pub fn bits_for(values: u64) -> u32 {
    64 - (values.max(2) - 1).leading_zeros()
}

/// Largest power-of-two huge-page size whose `hmax` codes fit in `w` bits.
///
/// Decoupling stores `hmax` codes of `bits` bits in a `w`-bit value, so
/// `hmax = ⌊w / bits⌋`, rounded *down* to a power of two because huge pages
/// must be power-of-two sized (Section 5 assumes `hmax` is a power of two).
pub fn hmax_for(w: u32, bits: u32) -> u64 {
    let raw = (w / bits.max(1)).max(1) as u64;

    1u64 << (63 - raw.leading_zeros())
}

/// Derived parameters for the one-choice allocator (Theorem 1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OneChoiceParams {
    /// Number of bins `n`.
    pub bins: u64,
    /// Bin size `B` in page slots; associativity = `B`.
    pub bin_size: u32,
    /// Target average load `λ`.
    pub lambda: f64,
    /// Supported resident-set bound `m = ⌊n·λ⌋`.
    pub max_resident: u64,
    /// Effective resource augmentation `δ_eff = 1 − m/P`.
    pub delta_eff: f64,
    /// Bits per slot code: `⌈log₂(B+1)⌉` (code 0 = absent).
    pub bits_per_code: u32,
}

impl OneChoiceParams {
    /// Derives parameters for a physical memory of `phys_pages` pages,
    /// following the paper: `λ = log P · log log P`,
    /// `B = λ + c·√(λ·ln n)` (we take c = 2.5, comfortably inside the
    /// high-probability regime of eq. (5)'s third case).
    pub fn derive(phys_pages: u64) -> Self {
        let p = phys_pages as f64;
        let lambda = (lg2(p) * lg2(lg2(p))).max(4.0);
        // Approximate n for the slack term; one refinement pass.
        let mut bins = (p / lambda).max(1.0);
        for _ in 0..2 {
            let slack = 2.5 * (lambda * bins.max(2.0).ln()).sqrt();
            let bin_size = (lambda + slack).ceil();
            bins = (p / bin_size).floor().max(1.0);
        }
        let slack = 2.5 * (lambda * bins.max(2.0).ln()).sqrt();
        let bin_size = (lambda + slack).ceil() as u32;
        let bins = ((p / bin_size as f64).floor() as u64).max(1);
        let max_resident = ((bins as f64) * lambda).floor() as u64;
        Self {
            bins,
            bin_size,
            lambda,
            max_resident,
            delta_eff: 1.0 - max_resident as f64 / p,
            bits_per_code: bits_for(bin_size as u64 + 1),
        }
    }

    /// Explicit parameters, for sweeps and failure-injection tests.
    pub fn custom(bins: u64, bin_size: u32, phys_pages: u64, lambda: f64) -> Self {
        let max_resident = ((bins as f64) * lambda).floor() as u64;
        Self {
            bins,
            bin_size,
            lambda,
            max_resident,
            delta_eff: 1.0 - max_resident as f64 / phys_pages as f64,
            bits_per_code: bits_for(bin_size as u64 + 1),
        }
    }
}

/// Derived parameters for the Iceberg\[2\] allocator (Theorem 3).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IcebergParams {
    /// Number of bins `n`.
    pub bins: u64,
    /// Front-tier capacity per bin (the `(1+o(1))λ` cap of Theorem 2).
    pub front_cap: u32,
    /// Back-tier capacity per bin (the `log log n + O(1)` overflow space).
    pub back_cap: u32,
    /// Target average load `λ`.
    pub lambda: f64,
    /// Supported resident-set bound `m = ⌊n·λ⌋`.
    pub max_resident: u64,
    /// Effective resource augmentation `δ_eff = 1 − m/P`.
    pub delta_eff: f64,
    /// Bits per slot code: `⌈log₂(1 + front + 2·back)⌉`.
    pub bits_per_code: u32,
}

impl IcebergParams {
    /// Derives parameters for a physical memory of `phys_pages` pages,
    /// following the paper: `λ = log log P · log log log P` (floored at 4
    /// for tiny `P`), front cap `⌈1.25·λ⌉ + 1`, back capacity
    /// `⌈log₂ log₂ n⌉ + 5`.
    pub fn derive(phys_pages: u64) -> Self {
        let p = phys_pages as f64;
        let lambda = (lg2(lg2(p)) * lg2(lg2(lg2(p))).max(1.0)).max(4.0);
        let front_cap = (1.25 * lambda).ceil() as u32 + 1;
        // Approximate n to size the back tier.
        let n_approx = (p / (front_cap as f64)).max(4.0);
        let back_cap = lg2(lg2(n_approx)).ceil() as u32 + 5;
        let bin_size = front_cap + back_cap;
        let bins = ((p / bin_size as f64).floor() as u64).max(1);
        let max_resident = ((bins as f64) * lambda).floor() as u64;
        Self {
            bins,
            front_cap,
            back_cap,
            lambda,
            max_resident,
            delta_eff: 1.0 - max_resident as f64 / p,
            bits_per_code: bits_for(1 + front_cap as u64 + 2 * back_cap as u64),
        }
    }

    /// Explicit parameters, for sweeps and failure-injection tests.
    pub fn custom(bins: u64, front_cap: u32, back_cap: u32, phys_pages: u64, lambda: f64) -> Self {
        let max_resident = ((bins as f64) * lambda).floor() as u64;
        Self {
            bins,
            front_cap,
            back_cap,
            lambda,
            max_resident,
            delta_eff: 1.0 - max_resident as f64 / phys_pages as f64,
            bits_per_code: bits_for(1 + front_cap as u64 + 2 * back_cap as u64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_for_small_values() {
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 2);
        assert_eq!(bits_for(5), 3);
        assert_eq!(bits_for(256), 8);
        assert_eq!(bits_for(257), 9);
    }

    #[test]
    fn hmax_is_power_of_two_and_fits() {
        for w in [16u32, 64, 128, 512] {
            for bits in [1u32, 3, 5, 7, 9, 20] {
                let h = hmax_for(w, bits);
                assert!(h.is_power_of_two());
                assert!(h * bits as u64 <= w as u64 || h == 1);
            }
        }
        assert_eq!(hmax_for(64, 7), 8);
        assert_eq!(hmax_for(64, 6), 8);
        assert_eq!(hmax_for(512, 6), 64);
    }

    #[test]
    fn one_choice_derivation_is_consistent() {
        for shift in [14u32, 17, 20, 24] {
            let p = 1u64 << shift;
            let d = OneChoiceParams::derive(p);
            assert!(d.bins >= 1);
            assert!(
                (d.bins * d.bin_size as u64) <= p,
                "bins overrun P at 2^{shift}"
            );
            assert!(d.max_resident <= p);
            assert!(d.bin_size as f64 > d.lambda, "B must exceed λ");
            assert!(d.delta_eff > 0.0 && d.delta_eff < 1.0);
        }
    }

    #[test]
    fn iceberg_derivation_is_consistent() {
        for shift in [14u32, 17, 20, 24, 30] {
            let p = 1u64 << shift;
            let d = IcebergParams::derive(p);
            assert!(d.bins >= 1);
            assert!((d.bins * (d.front_cap + d.back_cap) as u64) <= p);
            assert!(d.front_cap as f64 > d.lambda);
            assert!(d.back_cap >= 5);
            assert!(d.delta_eff > 0.0 && d.delta_eff < 1.0);
        }
    }

    #[test]
    fn iceberg_codes_are_smaller_than_one_choice_at_scale() {
        // The headline separation: Θ(logloglog P) vs Θ(loglog P) bits.
        let p = 1u64 << 30;
        let oc = OneChoiceParams::derive(p);
        let ib = IcebergParams::derive(p);
        assert!(
            ib.bits_per_code < oc.bits_per_code,
            "iceberg {} !< one-choice {}",
            ib.bits_per_code,
            oc.bits_per_code
        );
    }

    #[test]
    fn one_choice_lambda_grows_with_p() {
        let small = OneChoiceParams::derive(1 << 14);
        let large = OneChoiceParams::derive(1 << 30);
        assert!(large.lambda > small.lambda);
        assert!(large.bin_size > small.bin_size);
    }

    #[test]
    fn iceberg_bin_size_nearly_flat_in_p() {
        // Θ̃(loglog P) growth: from 2^14 to 2^34 the bin size should grow by
        // only a few slots.
        let small = IcebergParams::derive(1 << 14);
        let large = IcebergParams::derive(1u64 << 34);
        let growth =
            (large.front_cap + large.back_cap) as f64 / (small.front_cap + small.back_cap) as f64;
        assert!(growth < 2.0, "iceberg bins grew {growth}x over 2^20 range");
    }
}

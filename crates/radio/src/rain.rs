//! Rain attenuation following the structure of ITU-R P.838 / P.530.
//!
//! Specific attenuation is the power-law `γ = k·Rᵅ` dB/km where `R` is the
//! rain rate in mm/h. The regression coefficients `k` and `α` vary with
//! frequency; we tabulate representative horizontal-polarization values on
//! a coarse frequency grid and interpolate (log-k linearly in log-f, α
//! linearly in log-f), which reproduces the qualitative behaviour the
//! paper relies on: attenuation grows steeply with frequency, making
//! 6 GHz links far more rain-robust than 11 or 18 GHz links.

/// Coefficient table rows: (frequency GHz, k, α), horizontal polarization,
/// following the magnitudes of the P.838-3 regression constants.
const COEFFS: [(f64, f64, f64); 9] = [
    (1.0, 0.0000259, 0.9691),
    (2.0, 0.0000847, 1.0664),
    (4.0, 0.0001071, 1.6009),
    (6.0, 0.001915, 1.4810),
    (8.0, 0.004115, 1.3905),
    (10.0, 0.01217, 1.2571),
    (12.0, 0.02386, 1.1825),
    (18.0, 0.07078, 1.0818),
    (25.0, 0.1571, 1.0000),
];

/// The power-law coefficients `(k, α)` of `γ = k·Rᵅ` at `freq_ghz`,
/// interpolated from the table (log-k and α linear in log-f). Clamps
/// frequency to the table range `[1, 25]` GHz.
///
/// They depend on frequency alone, so a caller evaluating one link under
/// many rain rates computes them once.
pub fn rain_coefficients(freq_ghz: f64) -> (f64, f64) {
    let f = freq_ghz.clamp(COEFFS[0].0, COEFFS[COEFFS.len() - 1].0);
    // Locate bracketing rows.
    let mut i = 0;
    while i + 2 < COEFFS.len() && COEFFS[i + 1].0 < f {
        i += 1;
    }
    let (f0, k0, a0) = COEFFS[i];
    let (f1, k1, a1) = COEFFS[i + 1];
    let t = if f1 > f0 {
        (f.ln() - f0.ln()) / (f1.ln() - f0.ln())
    } else {
        0.0
    };
    let k = (k0.ln() + t * (k1.ln() - k0.ln())).exp();
    let alpha = a0 + t * (a1 - a0);
    (k, alpha)
}

/// Specific rain attenuation `γ` in dB/km at `freq_ghz` for rain rate
/// `rain_mm_h` (mm/h), from [`rain_coefficients`].
///
/// Zero or negative rain rate yields zero attenuation.
pub fn specific_attenuation_db_per_km(freq_ghz: f64, rain_mm_h: f64) -> f64 {
    if rain_mm_h <= 0.0 {
        return 0.0;
    }
    let (k, alpha) = rain_coefficients(freq_ghz);
    k * rain_mm_h.powf(alpha)
}

/// Effective path length (km) for rain attenuation per the P.530-style
/// reduction: rain cells are a few km across, so long paths are never
/// entirely inside a cell. `d_eff = d / (1 + d/d0)` with
/// `d0 = 35·e^(−0.015·R)` km.
pub fn effective_path_length_km(path_km: f64, rain_mm_h: f64) -> f64 {
    if path_km <= 0.0 {
        return 0.0;
    }
    let d0 = 35.0 * (-0.015 * rain_mm_h.min(100.0)).exp();
    path_km / (1.0 + path_km / d0)
}

/// Total rain attenuation in dB over a link of `path_km` km at `freq_ghz`
/// under rain rate `rain_mm_h`.
pub fn rain_attenuation_db(freq_ghz: f64, path_km: f64, rain_mm_h: f64) -> f64 {
    specific_attenuation_db_per_km(freq_ghz, rain_mm_h)
        * effective_path_length_km(path_km, rain_mm_h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rain_zero_attenuation() {
        assert_eq!(specific_attenuation_db_per_km(6.0, 0.0), 0.0);
        assert_eq!(rain_attenuation_db(11.0, 50.0, 0.0), 0.0);
        assert_eq!(specific_attenuation_db_per_km(6.0, -3.0), 0.0);
    }

    #[test]
    fn attenuation_grows_with_frequency() {
        let r = 40.0; // heavy rain
        let g6 = specific_attenuation_db_per_km(6.0, r);
        let g11 = specific_attenuation_db_per_km(11.0, r);
        let g18 = specific_attenuation_db_per_km(18.0, r);
        assert!(g6 < g11 && g11 < g18, "γ6={g6} γ11={g11} γ18={g18}");
        // 11 GHz is several times worse than 6 GHz — the crux of §5.
        assert!(g11 / g6 > 3.0, "ratio {}", g11 / g6);
    }

    #[test]
    fn attenuation_grows_with_rain_rate() {
        let mut prev = 0.0;
        for r in [1.0, 5.0, 10.0, 25.0, 50.0, 100.0] {
            let g = specific_attenuation_db_per_km(11.0, r);
            assert!(g > prev);
            prev = g;
        }
    }

    #[test]
    fn tabulated_rows_are_reproduced() {
        // At exactly a table frequency the interpolation must return the row.
        let g = specific_attenuation_db_per_km(6.0, 1.0);
        assert!((g - 0.001915).abs() < 1e-9, "got {g}");
    }

    #[test]
    fn magnitudes_plausible_at_heavy_rain() {
        // 18 GHz at 50 mm/h should be several dB/km (rain-limited band);
        // 6 GHz should stay below ~1 dB/km.
        let g18 = specific_attenuation_db_per_km(18.0, 50.0);
        let g6 = specific_attenuation_db_per_km(6.0, 50.0);
        assert!(g18 > 3.0, "g18={g18}");
        assert!(g6 < 1.0, "g6={g6}");
    }

    #[test]
    fn clamps_out_of_range_frequencies() {
        let lo = specific_attenuation_db_per_km(0.5, 30.0);
        let at1 = specific_attenuation_db_per_km(1.0, 30.0);
        assert!((lo - at1).abs() < 1e-12);
        let hi = specific_attenuation_db_per_km(40.0, 30.0);
        let at25 = specific_attenuation_db_per_km(25.0, 30.0);
        assert!((hi - at25).abs() < 1e-12);
    }

    #[test]
    fn specific_attenuation_is_the_coefficient_power_law_bit_for_bit() {
        // Every table row, points between rows, both clamp edges and
        // beyond them, under light to violent rain.
        let mut freqs: Vec<f64> = COEFFS.iter().map(|row| row.0).collect();
        freqs.extend(COEFFS.windows(2).map(|w| (w[0].0 + w[1].0) / 2.0));
        freqs.extend([0.0, 0.5, 0.999, 1.001, 6.2, 11.2, 24.999, 25.001, 40.0]);
        for f in freqs {
            let (k, alpha) = rain_coefficients(f);
            for r in [1e-9, 0.1, 1.0, 7.5, 18.0, 42.0, 100.0, 150.0] {
                assert_eq!(
                    specific_attenuation_db_per_km(f, r).to_bits(),
                    (k * r.powf(alpha)).to_bits(),
                    "f={f} r={r}"
                );
            }
        }
    }

    #[test]
    fn coefficients_reproduce_table_rows_and_clamp() {
        for (f, k, alpha) in COEFFS {
            let (gk, ga) = rain_coefficients(f);
            assert!((gk - k).abs() <= k * 1e-12, "k at {f}: {gk} vs {k}");
            assert!((ga - alpha).abs() < 1e-12, "α at {f}: {ga} vs {alpha}");
        }
        assert_eq!(rain_coefficients(0.5), rain_coefficients(1.0));
        assert_eq!(rain_coefficients(40.0), rain_coefficients(25.0));
    }

    #[test]
    fn effective_length_shrinks_long_paths() {
        let short = effective_path_length_km(5.0, 30.0);
        assert!(short > 4.0 && short <= 5.0);
        let long = effective_path_length_km(100.0, 30.0);
        assert!(long < 100.0 * 0.3, "long path barely reduced: {long}");
        assert_eq!(effective_path_length_km(0.0, 30.0), 0.0);
    }

    #[test]
    fn effective_length_monotone_in_path() {
        let mut prev = 0.0;
        for d in [1.0, 5.0, 20.0, 50.0, 100.0] {
            let e = effective_path_length_km(d, 25.0);
            assert!(e > prev);
            prev = e;
        }
    }

    #[test]
    fn heavier_rain_means_smaller_cells() {
        assert!(effective_path_length_km(50.0, 80.0) < effective_path_length_km(50.0, 5.0));
    }

    #[test]
    fn total_attenuation_composition() {
        let f = 11.0;
        let d = 48.5; // NLN's median link length
        let r = 40.0;
        let total = rain_attenuation_db(f, d, r);
        let manual = specific_attenuation_db_per_km(f, r) * effective_path_length_km(d, r);
        assert!((total - manual).abs() < 1e-12);
        assert!(
            total > 10.0,
            "a long 11 GHz link in heavy rain should fade hard: {total} dB"
        );
    }

    #[test]
    fn short_low_freq_link_survives_what_kills_long_high_freq() {
        // WH-style link: 36 km at 6.2 GHz. NLN-style link: 48.5 km at 11.2 GHz.
        let r = 35.0;
        let wh = rain_attenuation_db(6.2, 36.0, r);
        let nln = rain_attenuation_db(11.2, 48.5, r);
        assert!(nln > 2.5 * wh, "wh={wh} nln={nln}");
    }
}

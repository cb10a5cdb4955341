//! # hft-radio
//!
//! Microwave-radio substrate for the reliability analysis of §5 of the
//! IMC'20 paper. The paper *cites* the ITU-R propagation recommendations
//! (P.530 for line-of-sight design, P.838 for rain specific attenuation)
//! to argue that shorter links and lower frequencies are more reliable;
//! this crate implements those models so the argument becomes a runnable
//! experiment:
//!
//! * [`bands`] — FCC Part 101-style fixed-microwave band plans and channel
//!   assignment (the 6, 11, 18 and 23 GHz bands seen in HFT filings);
//! * [`rain`] — ITU-R P.838-style specific attenuation `γ = k·Rᵅ` and the
//!   P.530-style effective-path-length reduction;
//! * [`multipath`] — clear-air multipath fade occurrence for small fade
//!   margins;
//! * [`linkbudget`] — free-space path loss and fade-margin computation;
//! * [`availability`] — per-link outage probability under a rain-rate
//!   distribution, and weather-state sampling for Monte Carlo analysis of
//!   whole networks;
//! * [`climate`] — annual availability from a rain climatology.
//!
//! ```
//! use hft_radio::{LinkOutageModel, RainClimate, link_annual_availability};
//!
//! // A Webline-style hop (36 km at 6.2 GHz) vs an NLN-style hop
//! // (48.5 km at 11.2 GHz): the §5 reliability ordering.
//! let climate = RainClimate::continental_temperate();
//! let short_low = link_annual_availability(&LinkOutageModel::typical(36.0, 6.2), &climate);
//! let long_high = link_annual_availability(&LinkOutageModel::typical(48.5, 11.2), &climate);
//! assert!(short_low > long_high);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod availability;
pub mod bands;
pub mod climate;
pub mod linkbudget;
pub mod multipath;
pub mod rain;

pub use availability::{LinkOutageModel, WeatherEvent, WeatherSampler};
pub use bands::{Band, BandPlan, Channel, GHZ, MHZ};
pub use climate::{link_annual_availability, path_annual_availability, RainClimate};
pub use linkbudget::{fade_margin_db, free_space_path_loss_db, LinkBudget};
pub use multipath::multipath_outage_probability;
pub use rain::{
    effective_path_length_km, rain_attenuation_db, rain_coefficients,
    specific_attenuation_db_per_km,
};

//! The seeded congestion schedule of the `image-qos` workload.
//!
//! One round is `ROUND` calls. A round holds `BURSTS` congested bursts of
//! `BURST_LEN` calls each, at seeded positions, separated by idle gaps of
//! at least `MIN_GAP` calls; the round ends idle. Each call's RTT sample
//! is what a full 640x480 frame takes on the 100 Mbps `sbq-netsim` link
//! under that slot's cross traffic, and the client's estimator is fed it
//! before the call. The band the server then picks is predicted by
//! running the same hysteresis tracker over the samples.
//!
//! With the default switch policy a burst degrades at once and recovers
//! after three idle samples, so `BURSTS * (BURST_LEN + 2)` of the
//! `ROUND` frames come back reduced: 56 of 240, about a quarter, for
//! every seed.

use sbq_model::workload::Lcg;
use sbq_netsim::{CrossTraffic, LinkSpec};
use sbq_qos::{BandTracker, QualityFile, SwitchPolicy};
use std::time::Duration;

pub const ROUND: usize = 240;
const BURSTS: usize = 8;
const BURST_LEN: usize = 5;
const MIN_GAP: usize = 6;
/// Cross-traffic load of a congested slot (the Fig. 8 iperf level).
const CONGESTED_LOAD: f64 = 0.92;
/// Virtual time per call on the simulated link.
const SLOT: Duration = Duration::from_millis(100);
/// Request and full-frame response sizes the simulated RTT is charged.
const REQUEST_BYTES: usize = 120;
const FULL_FRAME_BYTES: usize = 640 * 480 * 3 + 64;

/// Which slots of a round are congested.
pub fn congestion_pattern(seed: u64) -> Vec<bool> {
    let mut rng = Lcg::new(seed ^ 0x51_6e_a1);
    // BURSTS + 1 idle gaps: before each burst, and the round's tail.
    let mut gaps = [MIN_GAP; BURSTS + 1];
    let spare = ROUND - BURSTS * BURST_LEN - (BURSTS + 1) * MIN_GAP;
    for _ in 0..spare {
        gaps[rng.next_below(gaps.len() as u64) as usize] += 1;
    }
    let mut pattern = Vec::with_capacity(ROUND);
    for (i, gap) in gaps.iter().enumerate() {
        pattern.extend(std::iter::repeat_n(false, *gap));
        if i < BURSTS {
            pattern.extend(std::iter::repeat_n(true, BURST_LEN));
        }
    }
    pattern
}

/// Per-slot RTT samples (ms) for one round: a full frame's round trip
/// on the 100 Mbps LAN model under the slot's cross traffic.
pub fn rtt_samples_ms(seed: u64) -> Vec<f64> {
    let loads: Vec<f64> = congestion_pattern(seed)
        .into_iter()
        .map(|c| if c { CONGESTED_LOAD } else { 0.0 })
        .collect();
    let cross = CrossTraffic::staircase(SLOT, &loads);
    let link = LinkSpec::lan_100mbps();
    (0..ROUND)
        .map(|i| {
            let available = 1.0 - cross.load_at(SLOT * i as u32 + SLOT / 2);
            let rtt = link.transfer_time(REQUEST_BYTES, available)
                + link.transfer_time(FULL_FRAME_BYTES, available);
            rtt.as_secs_f64() * 1e3
        })
        .collect()
}

/// The RTT sample of the set-up call (an idle slot).
pub fn idle_sample_ms(samples: &[f64]) -> f64 {
    samples[ROUND - 1]
}

/// The band the server picks for each slot of a round, given that the
/// server's selector was established by one idle sample (the set-up
/// call) or ended the previous round.
pub fn predicted_bands(file: &QualityFile, samples: &[f64]) -> Vec<usize> {
    let mut tracker = BandTracker::new(SwitchPolicy::default());
    tracker.observe(file, idle_sample_ms(samples));
    samples
        .iter()
        .map(|&ms| tracker.observe(file, ms).0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbq_imaging::image_quality_file;

    #[test]
    fn pattern_is_seeded_and_fixed_in_shape() {
        for seed in [1, 2, 42, 9_999] {
            let p = congestion_pattern(seed);
            assert_eq!(p, congestion_pattern(seed), "same seed, same schedule");
            assert_eq!(p.len(), ROUND);
            assert_eq!(p.iter().filter(|&&c| c).count(), BURSTS * BURST_LEN);
            assert!(p[ROUND - MIN_GAP..].iter().all(|&c| !c), "round ends idle");
        }
        assert_ne!(congestion_pattern(1), congestion_pattern(2));
    }

    #[test]
    fn samples_sit_far_from_the_threshold() {
        let samples = rtt_samples_ms(7);
        assert_eq!(samples, rtt_samples_ms(7));
        for (&c, &ms) in congestion_pattern(7).iter().zip(&samples) {
            if c {
                assert!(ms > 400.0, "congested sample {ms}");
            } else {
                assert!(ms < 100.0, "idle sample {ms}");
            }
        }
    }

    #[test]
    fn a_quarter_of_frames_are_reduced_and_rounds_repeat() {
        let file = image_quality_file(200.0);
        for seed in [3, 11, 12_345] {
            let samples = rtt_samples_ms(seed);
            let bands = predicted_bands(&file, &samples);
            assert_eq!(bands, predicted_bands(&file, &samples));
            let reduced = bands.iter().filter(|&&b| b == 1).count();
            assert_eq!(reduced, BURSTS * (BURST_LEN + 2));
            // The tracker ends each round where it started, so every
            // round repeats the same band sequence.
            let mut tracker = BandTracker::new(SwitchPolicy::default());
            tracker.observe(&file, idle_sample_ms(&samples));
            for round in 0..3 {
                let got: Vec<usize> = samples
                    .iter()
                    .map(|&ms| tracker.observe(&file, ms).0)
                    .collect();
                assert_eq!(got, bands, "round {round}");
            }
        }
    }
}

//! Property-based tests on the core data structures and invariants.

use proptest::prelude::*;
use snn_core::encoding::{BurstEncoder, PoissonEncoder, RankOrderEncoder, TtfsEncoder};
use snn_core::metrics::ConfusionMatrix;
use snn_core::neuron::{AdaptiveThreshold, LifLayer, LifParams};
use snn_core::ops::OpCounts;
use snn_core::rng::{derive_seed, seeded_rng};
use snn_core::synapse::WeightMatrix;
use snn_data::SyntheticDigits;
use snn_serve::frame::{
    decode_exact, line_to_frame, verb_code, Frame, FLAG_PUSH, MAX_FRAME_PAYLOAD, VERB_CODES,
    VERB_RAW,
};
use snn_serve::protocol::hex_encode;

proptest! {
    // --- weight matrix invariants ---

    #[test]
    fn weights_stay_clipped_under_arbitrary_nudges(
        seed in 0u64..1000,
        nudges in prop::collection::vec((0usize..6, 0usize..8, -2.0f32..2.0), 0..64),
    ) {
        let mut rng = seeded_rng(seed);
        let mut m = WeightMatrix::random_uniform(6, 8, 0.3, 1.0, &mut rng);
        for (post, pre, delta) in nudges {
            m.nudge(post, pre, delta);
        }
        for &w in m.as_slice() {
            prop_assert!((0.0..=1.0).contains(&w), "weight {w} escaped [0, w_max]");
        }
    }

    #[test]
    fn normalisation_is_idempotent(seed in 0u64..1000, target in 0.5f32..100.0) {
        let mut rng = seeded_rng(seed);
        let mut m = WeightMatrix::random_uniform(4, 16, 1.0, 1000.0, &mut rng);
        let mut ops = OpCounts::default();
        m.normalize_rows(target, &mut ops);
        let once: Vec<f32> = (0..4).map(|j| m.row_sum(j)).collect();
        m.normalize_rows(target, &mut ops);
        let twice: Vec<f32> = (0..4).map(|j| m.row_sum(j)).collect();
        for (a, b) in once.iter().zip(&twice) {
            prop_assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn decay_never_increases_weights(seed in 0u64..1000, factor in 0.0f32..1.0) {
        let mut rng = seeded_rng(seed);
        let mut m = WeightMatrix::random_uniform(4, 8, 1.0, 1.0, &mut rng);
        let before: Vec<f32> = m.as_slice().to_vec();
        let mut ops = OpCounts::default();
        m.decay_all(factor, &mut ops);
        for (a, b) in m.as_slice().iter().zip(&before) {
            prop_assert!(a <= b);
        }
    }

    // --- op-count algebra ---

    #[test]
    fn opcounts_since_inverts_accumulate(
        a in any::<[u32; 4]>(),
        b in any::<[u32; 4]>(),
    ) {
        let mk = |v: [u32; 4]| OpCounts {
            neuron_updates: u64::from(v[0]),
            decay_mults: u64::from(v[1]),
            syn_events: u64::from(v[2]),
            weight_updates: u64::from(v[3]),
            ..Default::default()
        };
        let early = mk(a);
        let mut late = early;
        late.accumulate(&mk(b));
        prop_assert_eq!(late.since(&early), mk(b));
    }

    #[test]
    fn opcounts_scaled_is_linear(v in any::<[u16; 3]>(), k in 0u64..1000) {
        let ops = OpCounts {
            neuron_updates: u64::from(v[0]),
            exp_evals: u64::from(v[1]),
            kernel_launches: u64::from(v[2]),
            ..Default::default()
        };
        prop_assert_eq!(ops.scaled(k).total(), ops.total() * k);
    }

    // --- encoders ---

    #[test]
    fn poisson_rates_are_bounded(intensities in prop::collection::vec(-1.0f32..2.0, 1..64)) {
        let e = PoissonEncoder::new(63.75);
        for r in e.rates_hz(&intensities) {
            prop_assert!((0.0..=63.75).contains(&r));
        }
    }

    #[test]
    fn ttfs_emits_at_most_one_spike_per_channel(
        intensities in prop::collection::vec(0.0f32..1.0, 1..32),
        n_steps in 2u32..200,
    ) {
        let mut ops = OpCounts::default();
        let train = TtfsEncoder::new(n_steps).encode(&intensities, &mut ops);
        for c in 0..intensities.len() {
            prop_assert!(train.channel(c).len() <= 1);
            if let Some(&t) = train.channel(c).first() {
                prop_assert!(t < n_steps);
            }
        }
    }

    #[test]
    fn rank_order_spike_times_are_a_prefix_permutation(
        intensities in prop::collection::vec(0.0f32..1.0, 1..24),
    ) {
        let mut ops = OpCounts::default();
        let train = RankOrderEncoder.encode(&intensities, &mut ops);
        let active = intensities.iter().filter(|&&x| x > 0.0).count();
        let mut times: Vec<u32> = (0..intensities.len())
            .flat_map(|c| train.channel(c).to_vec())
            .collect();
        times.sort_unstable();
        let expected: Vec<u32> = (0..active as u32).collect();
        prop_assert_eq!(times, expected);
    }

    #[test]
    fn burst_spike_count_is_monotone_in_intensity(
        a in 0.0f32..1.0,
        b in 0.0f32..1.0,
    ) {
        let e = BurstEncoder::new(8, 2);
        let mut ops = OpCounts::default();
        let ta = e.encode(&[a], &mut ops);
        let tb = e.encode(&[b], &mut ops);
        if a <= b {
            prop_assert!(ta.channel(0).len() <= tb.channel(0).len());
        }
    }

    // --- neurons ---

    #[test]
    fn lif_never_spikes_without_input(steps in 1u32..500) {
        let mut layer = LifLayer::new(4, LifParams::excitatory(), Some(AdaptiveThreshold::default()));
        let mut ops = OpCounts::default();
        for _ in 0..steps {
            prop_assert_eq!(layer.step(0.5, &mut ops), 0);
        }
    }

    #[test]
    fn lif_voltage_stays_in_physiological_range(
        drive in prop::collection::vec(0.0f32..0.5, 1..200),
    ) {
        let p = LifParams::excitatory();
        let mut layer = LifLayer::new(1, p, None);
        let mut ops = OpCounts::default();
        for w in drive {
            layer.inject_exc(0, w);
            layer.step(0.5, &mut ops);
            let v = layer.voltages()[0];
            prop_assert!(v >= p.e_inh_mv && v <= p.v_thresh_mv + 1.0, "v = {v}");
        }
    }

    // --- metrics ---

    #[test]
    fn confusion_accuracy_is_a_probability(
        pairs in prop::collection::vec((0u8..5, prop::option::of(0u8..5)), 0..64),
    ) {
        let mut cm = ConfusionMatrix::new(5);
        for (t, p) in &pairs {
            cm.add(*t, *p);
        }
        let acc = cm.accuracy();
        prop_assert!((0.0..=1.0).contains(&acc));
        prop_assert_eq!(cm.total(), pairs.len() as u64);
    }

    // --- dataset determinism ---

    #[test]
    fn synthetic_digits_are_pure_functions_of_seed(
        seed in 0u64..500,
        class in 0u8..10,
        index in 0u64..50,
    ) {
        let a = SyntheticDigits::new(seed).sample(class, index);
        let b = SyntheticDigits::new(seed).sample(class, index);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn derive_seed_has_no_cheap_collisions(master in any::<u64>(), s1 in 0u64..128, s2 in 0u64..128) {
        prop_assume!(s1 != s2);
        prop_assert_ne!(derive_seed(master, s1), derive_seed(master, s2));
    }

    // --- proto 2 frame codec (DESIGN.md §13) ---

    #[test]
    fn frame_encode_decode_is_an_identity(
        flags in 0u8..2, // FLAG_DATA is owned by line_to_frame; see below
        tag in any::<u32>(),
        head_bytes in prop::collection::vec(32u8..127, 0..96),
        payload in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let frame = Frame {
            flags: if flags == 1 { FLAG_PUSH } else { 0 },
            verb: VERB_RAW,
            tag,
            head: String::from_utf8(head_bytes).expect("printable ASCII"),
            payload,
        };
        prop_assert_eq!(decode_exact(&frame.encode()).expect("round trip"), frame);
    }

    #[test]
    fn frame_lift_and_reinsert_is_total_for_any_verb_tag_payload(
        verb_i in 0usize..=VERB_CODES.len(),
        tag in any::<u32>(),
        data in prop::collection::vec(any::<u8>(), 0..256),
        trailing_rid in any::<bool>(),
    ) {
        // Every protocol verb code (plus raw), any tag, any payload —
        // including zero-length — survives line → frame → wire → frame →
        // line byte-identically, rid-as-final-field included.
        let verb = if verb_i == 0 { "no-such-verb" } else { VERB_CODES[verb_i - 1].1 };
        let rid = if trailing_rid { " rid=c0-42" } else { "" };
        let line = format!("{verb} id=s1 data={}{rid}", hex_encode(&data));
        let frame = line_to_frame(&line, tag, 0);
        prop_assert_eq!(frame.verb, verb_code(verb));
        prop_assert_eq!(frame.tag, tag);
        prop_assert_eq!(&frame.payload, &data);
        let wired = decode_exact(&frame.encode()).expect("round trip");
        prop_assert_eq!(wired.to_line().expect("reinsert"), line);
    }
}

/// The payload cap is inclusive: a frame carrying exactly
/// [`MAX_FRAME_PAYLOAD`] bytes round-trips, one byte past it is the
/// reject threshold (pinned in `snn-serve`'s hardening tests).
#[test]
fn frame_roundtrips_at_the_exact_payload_cap() {
    let frame = Frame {
        flags: 0,
        verb: VERB_RAW,
        tag: 7,
        head: "checkpoint id=big data=".to_string(),
        payload: vec![0xAB; MAX_FRAME_PAYLOAD as usize],
    };
    let decoded = decode_exact(&frame.encode()).expect("cap-sized frame decodes");
    assert_eq!(decoded.payload.len(), MAX_FRAME_PAYLOAD as usize);
    assert_eq!(decoded, frame);
}

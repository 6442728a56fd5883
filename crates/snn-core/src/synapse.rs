//! Dense synaptic weight storage.
//!
//! The architectures in the paper are fully connected (input → excitatory),
//! so weights live in a dense row-major matrix: row `j` holds the incoming
//! weights of postsynaptic neuron `j`. Row-major-by-post keeps the hot
//! learning-rule operations (per-winner potentiation, per-row normalisation,
//! whole-matrix decay) contiguous.
//!
//! Inference reads a second layout, [`InputMajor`]: row `k` holds the
//! weights input `k` drives, so each input spike adds one contiguous row
//! into the conductances. It is a read-only copy, filled from row-major
//! weights.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::error::{SnnError, SnnResult};
use crate::ops::OpCounts;

/// A dense `n_post × n_pre` weight matrix, row-major by postsynaptic neuron.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WeightMatrix {
    n_post: usize,
    n_pre: usize,
    data: Vec<f32>,
    w_max: f32,
}

impl WeightMatrix {
    /// Creates a matrix with every weight drawn uniformly from
    /// `[0, w_init_max)`, the initialisation used by Diehl & Cook.
    pub fn random_uniform<R: Rng + ?Sized>(
        n_post: usize,
        n_pre: usize,
        w_init_max: f32,
        w_max: f32,
        rng: &mut R,
    ) -> Self {
        let data = (0..n_post * n_pre)
            .map(|_| rng.gen::<f32>() * w_init_max)
            .collect();
        WeightMatrix {
            n_post,
            n_pre,
            data,
            w_max,
        }
    }

    /// Creates a matrix filled with a constant weight.
    pub fn constant(n_post: usize, n_pre: usize, w: f32, w_max: f32) -> Self {
        WeightMatrix {
            n_post,
            n_pre,
            data: vec![w; n_post * n_pre],
            w_max,
        }
    }

    /// Builds a matrix from an explicit row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::DimensionMismatch`] when `data.len()` is not
    /// `n_post * n_pre`.
    pub fn from_rows(n_post: usize, n_pre: usize, data: Vec<f32>, w_max: f32) -> SnnResult<Self> {
        if data.len() != n_post * n_pre {
            return Err(SnnError::DimensionMismatch {
                expected: n_post * n_pre,
                got: data.len(),
                what: "weight buffer",
            });
        }
        Ok(WeightMatrix {
            n_post,
            n_pre,
            data,
            w_max,
        })
    }

    /// Number of postsynaptic neurons (rows).
    pub fn n_post(&self) -> usize {
        self.n_post
    }

    /// Number of presynaptic channels (columns).
    pub fn n_pre(&self) -> usize {
        self.n_pre
    }

    /// Total number of synapses.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no synapses.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Upper clip bound for weights.
    pub fn w_max(&self) -> f32 {
        self.w_max
    }

    /// Weight of the synapse from presynaptic `pre` to postsynaptic `post`.
    #[inline]
    pub fn get(&self, post: usize, pre: usize) -> f32 {
        self.data[post * self.n_pre + pre]
    }

    /// Sets one weight (clipped to `[0, w_max]`).
    #[inline]
    pub fn set(&mut self, post: usize, pre: usize, w: f32) {
        self.data[post * self.n_pre + pre] = w.clamp(0.0, self.w_max);
    }

    /// Incoming weight row of postsynaptic neuron `post`.
    #[inline]
    pub fn row(&self, post: usize) -> &[f32] {
        &self.data[post * self.n_pre..(post + 1) * self.n_pre]
    }

    /// Mutable incoming weight row of postsynaptic neuron `post`.
    #[inline]
    pub fn row_mut(&mut self, post: usize) -> &mut [f32] {
        &mut self.data[post * self.n_pre..(post + 1) * self.n_pre]
    }

    /// The full row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the full row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Adds `delta` to one weight and clips to `[0, w_max]`.
    #[inline]
    pub fn nudge(&mut self, post: usize, pre: usize, delta: f32) {
        let idx = post * self.n_pre + pre;
        self.data[idx] = (self.data[idx] + delta).clamp(0.0, self.w_max);
    }

    /// Multiplies every weight by `factor` (exponential decay step),
    /// counting one weight update per synapse.
    pub fn decay_all(&mut self, factor: f32, ops: &mut OpCounts) {
        for w in &mut self.data {
            *w *= factor;
        }
        ops.weight_updates += self.data.len() as u64;
        ops.kernel_launches += 1;
    }

    /// Normalises each postsynaptic row so its weights sum to `target_sum`
    /// (Diehl & Cook's per-neuron weight normalisation). Rows whose sum is
    /// zero are left untouched.
    pub fn normalize_rows(&mut self, target_sum: f32, ops: &mut OpCounts) {
        for post in 0..self.n_post {
            let row = self.row_mut(post);
            let sum: f32 = row.iter().sum();
            if sum > f32::EPSILON {
                let scale = target_sum / sum;
                for w in row.iter_mut() {
                    *w *= scale;
                }
            }
        }
        ops.weight_updates += self.data.len() as u64;
        ops.kernel_launches += 2; // row-sum reduction + scale
    }

    /// Sparse event-driven propagation kernel: for every postsynaptic
    /// neuron, accumulates the weights of the *active* presynaptic channels
    /// into `acc` (one slot per postsynaptic neuron).
    ///
    /// This is the training path's delivery kernel: [`crate::sim::run_sample`]
    /// presents samples against the row-major matrix its plasticity rule
    /// writes. Compared with delivering one presynaptic spike at a time
    /// (a strided column walk per spike), it visits each contiguous
    /// postsynaptic row once and gathers all active columns from it — the
    /// row fits in L1, so the pass is bounded by one sequential sweep of
    /// the matrix instead of `spikes × n_post` cache misses. Inference
    /// ([`crate::sim::infer_sample`]) reads an [`InputMajor`] copy instead.
    ///
    /// Floating-point note: per accumulator slot the additions happen in
    /// `active` list order, the same order as repeated single-spike
    /// delivery and as [`InputMajor::gather_active_into`], so all three
    /// paths leave `acc` bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `acc.len() != n_post` or any channel index is out of
    /// range.
    pub fn gather_active_into(&self, active_pre: &[u32], acc: &mut [f32]) {
        assert_eq!(
            acc.len(),
            self.n_post,
            "accumulator must have one slot per postsynaptic neuron"
        );
        if active_pre.is_empty() {
            return;
        }
        for (slot, row) in acc.iter_mut().zip(self.data.chunks_exact(self.n_pre)) {
            for &k in active_pre {
                *slot += row[k as usize];
            }
        }
    }

    /// Sum of the incoming weights of `post`.
    pub fn row_sum(&self, post: usize) -> f32 {
        self.row(post).iter().sum()
    }

    /// Mean weight across the whole matrix.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }

    /// Fraction of synapses whose weight is below `threshold` — the paper's
    /// weight decay argues weak connections "get more disconnected over the
    /// training period"; this measures that.
    pub fn fraction_below(&self, threshold: f32) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        let n = self.data.iter().filter(|&&w| w < threshold).count();
        n as f32 / self.data.len() as f32
    }
}

/// A read-only input-major copy of a [`WeightMatrix`]: row `k` holds the
/// `n_post` weights that input channel `k` drives, one per postsynaptic
/// neuron.
///
/// This is the fan-out layout of event-driven inference: a spike on input
/// `k` adds one contiguous row into the excitatory conductances, so a step
/// costs one sequential pass per spiking input, where the row-major gather
/// walks all `n_post` rows. Training keeps the row-major matrix, whose
/// writers work on rows; this copy is only ever filled from one, in one
/// transposing pass.
#[derive(Debug, Clone, PartialEq)]
pub struct InputMajor {
    n_post: usize,
    n_pre: usize,
    data: Vec<f32>,
}

impl InputMajor {
    /// The input-major copy of `weights`.
    pub fn new(weights: &WeightMatrix) -> Self {
        let mut copy = InputMajor {
            n_post: weights.n_post,
            n_pre: weights.n_pre,
            data: vec![0.0; weights.len()],
        };
        copy.transpose_from(weights.as_slice());
        copy
    }

    /// Refills the copy from a row-major buffer of the same shape (the
    /// layout of [`WeightMatrix::as_slice`]) in one transposing pass.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::DimensionMismatch`] when `rows.len()` is not
    /// `n_post * n_pre`; the copy is left untouched.
    pub fn fill_from_rows(&mut self, rows: &[f32]) -> SnnResult<()> {
        if rows.len() != self.data.len() {
            return Err(SnnError::DimensionMismatch {
                expected: self.data.len(),
                got: rows.len(),
                what: "weight buffer",
            });
        }
        self.transpose_from(rows);
        Ok(())
    }

    fn transpose_from(&mut self, rows: &[f32]) {
        let n_pre = self.n_pre;
        for k in 0..n_pre {
            let column = rows.iter().skip(k).step_by(n_pre);
            for (w, &r) in self.fan_out_mut(k).iter_mut().zip(column) {
                *w = r;
            }
        }
    }

    /// Number of postsynaptic neurons (the length of a row).
    pub fn n_post(&self) -> usize {
        self.n_post
    }

    /// Number of presynaptic channels (rows).
    pub fn n_pre(&self) -> usize {
        self.n_pre
    }

    /// Weight of the synapse from presynaptic `pre` to postsynaptic `post`.
    #[inline]
    pub fn get(&self, post: usize, pre: usize) -> f32 {
        self.data[pre * self.n_post + post]
    }

    /// The weights input `pre` drives, one per postsynaptic neuron.
    #[inline]
    fn fan_out(&self, pre: usize) -> &[f32] {
        &self.data[pre * self.n_post..(pre + 1) * self.n_post]
    }

    fn fan_out_mut(&mut self, pre: usize) -> &mut [f32] {
        &mut self.data[pre * self.n_post..(pre + 1) * self.n_post]
    }

    /// Adds the fan-out row of every input in `active_pre` into `acc` (one
    /// slot per postsynaptic neuron), in list order.
    ///
    /// Each slot receives its additions in `active_pre` order, the order
    /// in which [`WeightMatrix::gather_active_into`] adds them, so `acc`
    /// ends bit-identical to the row-major gather over the same weights.
    /// A row is a run of independent per-slot additions, which vectorises
    /// without reordering any one slot's sum.
    ///
    /// # Panics
    ///
    /// Panics if `acc.len() != n_post` or any channel index is out of
    /// range.
    pub fn gather_active_into(&self, active_pre: &[u32], acc: &mut [f32]) {
        assert_eq!(
            acc.len(),
            self.n_post,
            "accumulator must have one slot per postsynaptic neuron"
        );
        for &k in active_pre {
            for (slot, &w) in acc.iter_mut().zip(self.fan_out(k as usize)) {
                *slot += w;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    #[test]
    fn random_init_within_bounds() {
        let mut rng = seeded_rng(1);
        let m = WeightMatrix::random_uniform(4, 8, 0.3, 1.0, &mut rng);
        assert_eq!(m.len(), 32);
        for &w in m.as_slice() {
            assert!((0.0..0.3).contains(&w));
        }
    }

    #[test]
    fn from_rows_validates_len() {
        assert!(WeightMatrix::from_rows(2, 3, vec![0.0; 5], 1.0).is_err());
        assert!(WeightMatrix::from_rows(2, 3, vec![0.0; 6], 1.0).is_ok());
    }

    #[test]
    fn get_set_roundtrip_and_clip() {
        let mut m = WeightMatrix::constant(3, 3, 0.5, 1.0);
        m.set(1, 2, 0.7);
        assert_eq!(m.get(1, 2), 0.7);
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 1.0, "set must clip to w_max");
        m.nudge(1, 2, -10.0);
        assert_eq!(m.get(1, 2), 0.0, "nudge must clip to zero");
    }

    #[test]
    fn row_is_contiguous_and_correct() {
        let data: Vec<f32> = (0..6).map(|x| x as f32).collect();
        let m = WeightMatrix::from_rows(2, 3, data, 10.0).unwrap();
        assert_eq!(m.row(0), &[0.0, 1.0, 2.0]);
        assert_eq!(m.row(1), &[3.0, 4.0, 5.0]);
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    fn decay_shrinks_all_weights() {
        let mut m = WeightMatrix::constant(2, 2, 0.8, 1.0);
        let mut ops = OpCounts::default();
        m.decay_all(0.5, &mut ops);
        for &w in m.as_slice() {
            assert!((w - 0.4).abs() < 1e-6);
        }
        assert_eq!(ops.weight_updates, 4);
    }

    #[test]
    fn normalize_rows_hits_target() {
        let mut rng = seeded_rng(3);
        let mut m = WeightMatrix::random_uniform(5, 20, 1.0, 10.0, &mut rng);
        let mut ops = OpCounts::default();
        m.normalize_rows(78.4, &mut ops);
        for post in 0..5 {
            assert!((m.row_sum(post) - 78.4).abs() < 1e-2);
        }
    }

    #[test]
    fn normalize_skips_zero_rows() {
        let mut m = WeightMatrix::constant(2, 4, 0.0, 1.0);
        let mut ops = OpCounts::default();
        m.normalize_rows(10.0, &mut ops);
        assert_eq!(m.row_sum(0), 0.0);
    }

    #[test]
    fn fraction_below_counts() {
        let m = WeightMatrix::from_rows(1, 4, vec![0.1, 0.2, 0.6, 0.9], 1.0).unwrap();
        assert!((m.fraction_below(0.5) - 0.5).abs() < 1e-6);
        assert_eq!(m.fraction_below(0.05), 0.0);
        assert_eq!(m.fraction_below(1.0), 1.0);
    }

    #[test]
    fn gather_active_matches_column_at_a_time_delivery() {
        let mut rng = seeded_rng(11);
        let m = WeightMatrix::random_uniform(7, 13, 0.3, 1.0, &mut rng);
        let active = [2u32, 3, 5, 11];
        // Reference: deliver one spike at a time, column walk per spike.
        let mut reference = [0.125f32; 7];
        for &k in &active {
            for (j, slot) in reference.iter_mut().enumerate() {
                *slot += m.get(j, k as usize);
            }
        }
        let mut gathered = [0.125f32; 7];
        m.gather_active_into(&active, &mut gathered);
        assert_eq!(
            reference.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
            gathered.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
            "sparse gather must be bit-identical to per-spike delivery"
        );
    }

    #[test]
    fn gather_active_with_no_spikes_is_a_noop() {
        let m = WeightMatrix::constant(3, 4, 0.5, 1.0);
        let mut acc = vec![1.0f32; 3];
        m.gather_active_into(&[], &mut acc);
        assert_eq!(acc, vec![1.0; 3]);
    }

    #[test]
    #[should_panic(expected = "one slot per postsynaptic neuron")]
    fn gather_active_validates_accumulator_len() {
        let m = WeightMatrix::constant(3, 4, 0.5, 1.0);
        let mut acc = vec![0.0f32; 2];
        m.gather_active_into(&[0], &mut acc);
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn input_major_gather_matches_row_major_bitwise() {
        let mut rng = seeded_rng(21);
        let mut shapes = vec![(1, 1), (1, 9), (6, 1), (7, 13), (13, 196), (100, 196)];
        shapes.extend((0..60).map(|_| (rng.gen_range(1..40usize), rng.gen_range(1..30usize))));
        for (n_post, n_pre) in shapes {
            let rows = WeightMatrix::random_uniform(n_post, n_pre, 1.0, 1.0, &mut rng);
            let inputs = InputMajor::new(&rows);
            let start: Vec<f32> = (0..n_post).map(|_| rng.gen::<f32>() * 4.0).collect();
            let unsorted_with_repeats: Vec<u32> = (0..2 * n_pre)
                .map(|_| rng.gen_range(0..n_pre as u32))
                .collect();
            let lists = [
                vec![],
                vec![rng.gen_range(0..n_pre as u32)],
                (0..n_pre as u32).collect(),
                (0..n_pre as u32).rev().collect(),
                unsorted_with_repeats,
            ];
            for active in &lists {
                let mut expect = start.clone();
                rows.gather_active_into(active, &mut expect);
                let mut got = start.clone();
                inputs.gather_active_into(active, &mut got);
                assert_eq!(
                    bits(&got),
                    bits(&expect),
                    "{n_post}x{n_pre}, active {active:?}"
                );
            }
        }
    }

    #[test]
    fn input_major_fill_round_trips_every_weight() {
        let mut rng = seeded_rng(22);
        let first = WeightMatrix::random_uniform(7, 5, 1.0, 1.0, &mut rng);
        let second = WeightMatrix::random_uniform(7, 5, 1.0, 1.0, &mut rng);
        let mut inputs = InputMajor::new(&first);
        for m in [&first, &second] {
            inputs.fill_from_rows(m.as_slice()).unwrap();
            assert_eq!((inputs.n_post(), inputs.n_pre()), (7, 5));
            for j in 0..7 {
                for k in 0..5 {
                    assert_eq!(inputs.get(j, k).to_bits(), m.get(j, k).to_bits());
                }
            }
        }
    }

    #[test]
    fn input_major_refuses_a_buffer_of_the_wrong_length() {
        let mut rng = seeded_rng(23);
        let m = WeightMatrix::random_uniform(4, 6, 1.0, 1.0, &mut rng);
        let mut inputs = InputMajor::new(&m);
        let before = inputs.clone();
        for len in [0, 23, 25, 48] {
            assert!(inputs.fill_from_rows(&vec![0.5; len]).is_err(), "{len}");
            assert_eq!(
                inputs, before,
                "a refused fill must leave the copy as it was"
            );
        }
    }

    #[test]
    #[should_panic(expected = "one slot per postsynaptic neuron")]
    fn input_major_gather_validates_accumulator_len() {
        let inputs = InputMajor::new(&WeightMatrix::constant(3, 4, 0.5, 1.0));
        inputs.gather_active_into(&[0], &mut [0.0; 2]);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        let m = WeightMatrix::constant(0, 0, 0.0, 1.0);
        assert_eq!(m.mean(), 0.0);
        assert!(m.is_empty());
    }
}

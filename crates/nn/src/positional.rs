//! Sinusoidal positional encoding (Vaswani et al. 2017).
//!
//! The NTT aggregated sequence (48 slots) has no recurrence, so position
//! must be injected explicitly. Fixed sinusoids are used rather than
//! learned embeddings: they extrapolate to other sequence lengths, which
//! matters when ablations change the slot count (48 vs 1008/21 etc.).

use ntt_tensor::{Tape, Tensor, Var};

/// Precomputed `[max_len, d_model]` sinusoid table.
pub struct PositionalEncoding {
    table: Tensor,
    d_model: usize,
}

impl PositionalEncoding {
    /// Build the table: `PE[pos, 2i] = sin(pos / 10000^(2i/d))`,
    /// `PE[pos, 2i+1] = cos(...)`.
    pub fn new(max_len: usize, d_model: usize) -> Self {
        let mut data = vec![0.0f32; max_len * d_model];
        for pos in 0..max_len {
            for i in 0..d_model / 2 {
                let freq = 1.0 / 10_000f64.powf(2.0 * i as f64 / d_model as f64);
                let angle = pos as f64 * freq;
                data[pos * d_model + 2 * i] = angle.sin() as f32;
                data[pos * d_model + 2 * i + 1] = angle.cos() as f32;
            }
        }
        PositionalEncoding {
            table: Tensor::from_vec(data, &[max_len, d_model]),
            d_model,
        }
    }

    /// Add positions to a `[B, T, D]` sequence (requires `T <= max_len`).
    pub fn forward<'t>(&self, tape: &'t Tape, x: Var<'t>) -> Var<'t> {
        let shape = x.shape();
        assert_eq!(shape.len(), 3, "positional encoding expects [B, T, D]");
        let (t, d) = (shape[1], shape[2]);
        assert_eq!(d, self.d_model, "d_model mismatch");
        assert!(
            t <= self.table.shape()[0],
            "sequence length {t} exceeds table {}",
            self.table.shape()[0]
        );
        // Staged as an arena-pooled copy of the first `t` rows: a warm
        // tape allocates nothing here.
        x.add(tape.input_slice(&self.table.data()[..t * d], &[t, d]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_values_match_formula() {
        let pe = PositionalEncoding::new(16, 8);
        // pos 0: sin(0)=0, cos(0)=1 alternating.
        for i in 0..4 {
            assert_eq!(pe.table.at(&[0, 2 * i]), 0.0);
            assert_eq!(pe.table.at(&[0, 2 * i + 1]), 1.0);
        }
        // pos 3, i=0: sin(3), cos(3)
        assert!((pe.table.at(&[3, 0]) - 3f32.sin()).abs() < 1e-5);
        assert!((pe.table.at(&[3, 1]) - 3f32.cos()).abs() < 1e-5);
    }

    #[test]
    fn rows_are_distinct_across_positions() {
        let pe = PositionalEncoding::new(48, 64);
        for p in 1..48 {
            let a: Vec<f32> = (0..64).map(|j| pe.table.at(&[0, j])).collect();
            let b: Vec<f32> = (0..64).map(|j| pe.table.at(&[p, j])).collect();
            assert_ne!(a, b, "position {p} identical to position 0");
        }
    }

    #[test]
    fn forward_adds_positions_per_batch() {
        let pe = PositionalEncoding::new(8, 4);
        let tape = Tape::new();
        let x = tape.input(Tensor::zeros(&[2, 3, 4]));
        let y = pe.forward(&tape, x).value();
        for b in 0..2 {
            for t in 0..3 {
                for j in 0..4 {
                    assert_eq!(y.at(&[b, t, j]), pe.table.at(&[t, j]));
                }
            }
        }
    }

    #[test]
    fn a_warm_tape_allocates_nothing_for_the_positions() {
        // Both the whole table and a prefix of it: every buffer a
        // forward takes comes back from the arena the reset before it
        // filled, so the buckets stop changing after the first pass.
        let pe = PositionalEncoding::new(8, 4);
        let x = Tensor::randn(&[2, 8, 4], 1);
        let short = Tensor::randn(&[2, 3, 4], 2);
        let mut tape = Tape::inference();
        let mut pass = || {
            pe.forward(&tape, tape.input_copy(&x));
            pe.forward(&tape, tape.input_copy(&short));
            tape.reset(0);
            tape.arena_bucket_lens()
        };
        assert_eq!(pass(), pass());
    }

    #[test]
    #[should_panic(expected = "exceeds table")]
    fn rejects_sequences_longer_than_table() {
        let pe = PositionalEncoding::new(4, 4);
        let tape = Tape::new();
        let x = tape.input(Tensor::zeros(&[1, 5, 4]));
        pe.forward(&tape, x);
    }
}

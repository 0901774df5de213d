//! Exact early exit for fixed-count iterations.
//!
//! The board models solve their congestion recursions by applying a
//! damped step a fixed number of times. In floating point such an
//! iterate usually stops changing long before the count runs out: it
//! lands on a fixed point, or on a two-value oscillation in its last
//! bits. From then on every remaining iterate is already known, so
//! [`iterate`] stops there and returns exactly what the full loop would
//! have — bit for bit, not to a tolerance.

/// Applies `step` to `x` in place `cap` times, stopping early once the
/// result of the remaining steps is known; returns the number of steps
/// actually applied.
///
/// The exit is exact provided `step` writes into `x` a deterministic
/// function of `x`'s previous contents and of inputs that do not change
/// during the call (it may use scratch memory, but must carry no state
/// from one step to the next). Then, writing `x_k` for the iterate after
/// `k` steps, the loop stops at the first `k` where
///
/// * `x_k == x_{k-1}` bit for bit: a fixed point, and `x_cap = x_k`; or
/// * `x_k == x_{k-2}` bit for bit: a two-cycle, and `x_cap` is `x_k`
///   when `cap - k` is even and `x_{k-1}` when it is odd.
///
/// `history` is scratch for the two previous iterates, so a caller that
/// solves many times allocates once.
pub fn iterate(
    x: &mut [f64],
    cap: usize,
    history: &mut Vec<f64>,
    mut step: impl FnMut(&mut [f64]),
) -> usize {
    let n = x.len();
    history.clear();
    history.resize(2 * n, 0.0);
    let (mut last, mut before_last) = history.split_at_mut(n);
    for k in 1..=cap {
        // `before_last` becomes x_{k-2}, `last` x_{k-1}, `x` x_k.
        std::mem::swap(&mut last, &mut before_last);
        last.copy_from_slice(x);
        step(x);
        if same_bits(x, last) {
            return k;
        }
        if k >= 2 && same_bits(x, before_last) {
            if (cap - k) % 2 == 1 {
                x.copy_from_slice(last);
            }
            return k;
        }
    }
    cap
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(a, b)| a.to_bits() == b.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The loop `iterate` must reproduce: `cap` steps, no exit.
    fn full(x: &mut [f64], cap: usize, mut step: impl FnMut(&mut [f64])) {
        for _ in 0..cap {
            step(x);
        }
    }

    /// Runs both loops from `start` and checks the early exit lands on
    /// the full loop's bits; returns the steps `iterate` applied.
    fn check(start: &[f64], cap: usize, step: impl Fn(&mut [f64])) -> usize {
        let mut expected = start.to_vec();
        full(&mut expected, cap, &step);
        let mut x = start.to_vec();
        let steps = iterate(&mut x, cap, &mut Vec::new(), &step);
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&x), bits(&expected), "cap {cap}");
        assert!(steps <= cap);
        steps
    }

    /// Counts up by one until `top`, then stays there.
    fn climb_to(top: f64) -> impl Fn(&mut [f64]) {
        move |x| x[0] = (x[0] + 1.0).min(top)
    }

    /// Counts up by one until `s`, then alternates `s + 1`, `s`, ….
    fn climb_then_flip(s: f64) -> impl Fn(&mut [f64]) {
        move |x| {
            x[0] = if x[0] < s {
                x[0] + 1.0
            } else if x[0] == s {
                s + 1.0
            } else {
                s
            }
        }
    }

    #[test]
    fn fixed_point_exits_one_step_after_it_is_reached() {
        // x_k = min(k, 5): x_5 = 5 and x_6 repeats it.
        for cap in [6, 7, 200] {
            assert_eq!(check(&[0.0], cap, climb_to(5.0)), 6);
        }
        // The cap comes first: nothing repeats within 4 or 5 steps.
        assert_eq!(check(&[0.0], 4, climb_to(5.0)), 4);
        assert_eq!(check(&[0.0], 5, climb_to(5.0)), 5);
    }

    #[test]
    fn two_cycle_picks_the_value_the_cap_lands_on() {
        // The cycle {s, s + 1} is entered at iteration s (x_s = s) and
        // seen at s + 2; both parities of s, both parities of the cap.
        for s in [3usize, 4] {
            for cap in [9, 10, 11, 200, 201] {
                let steps = check(&[0.0], cap, climb_then_flip(s as f64));
                assert_eq!(steps, s + 2, "s {s} cap {cap}");
            }
        }
    }

    #[test]
    fn two_cycle_in_one_coordinate_with_another_settling() {
        // x[0] halves its distance to 2.0 until it is exactly 2.0; x[1]
        // flips sign throughout. The vector repeats with period 2 only
        // once x[0] has stopped moving.
        let step = |x: &mut [f64]| {
            x[0] = 0.5 * x[0] + 1.0;
            x[1] = -x[1];
        };
        for cap in [100, 101, 200] {
            let steps = check(&[0.0, 1.0], cap, step);
            assert!(steps > 50 && steps < 100, "{steps}");
        }
    }

    #[test]
    fn a_step_that_never_settles_runs_to_the_cap() {
        let count = |x: &mut [f64]| x[0] += 1.0;
        for cap in [0, 1, 2, 3, 60] {
            assert_eq!(check(&[0.0], cap, count), cap);
        }
    }

    #[test]
    fn tiny_caps() {
        // Cap 0 applies nothing, even to a step that would move.
        let mut x = [7.0];
        assert_eq!(iterate(&mut x, 0, &mut Vec::new(), |x| x[0] = 1.0), 0);
        assert_eq!(x, [7.0]);
        // A fixed point from the start is seen after one step.
        for cap in [1, 2] {
            assert_eq!(check(&[5.0], cap, climb_to(5.0)), 1);
        }
        // A pure two-cycle from the start: cap 1 ends on the other
        // value, cap 2 sees the cycle and ends back on the start.
        let swap = |x: &mut [f64]| x[0] = 3.0 - x[0];
        assert_eq!(check(&[1.0], 1, swap), 1);
        assert_eq!(check(&[1.0], 2, swap), 2);
        assert_eq!(check(&[1.0], 3, swap), 2);
    }

    #[test]
    fn signed_zeros_are_different_iterates() {
        // -0.0 == 0.0 as numbers, but a step may tell them apart: the
        // exit compares bits, so this two-cycle is not a fixed point.
        let step = |x: &mut [f64]| x[0] = -x[0];
        for cap in [1, 2, 3, 4] {
            assert_eq!(check(&[0.0], cap, step), cap.min(2));
        }
    }
}

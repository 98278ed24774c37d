//! Oblivious adversaries: request sequences for the dynamic game.
//!
//! The paper's adversary specifies an arbitrary sequence of insertions and
//! deletions with at most `m` balls present, and is *oblivious* — the
//! sequence is fixed before the game's random bits are drawn. Each adversary
//! here is seeded independently of the game, so obliviousness holds by
//! construction.

use crate::game::Game;
use atp_hash::CounterRng;
use std::collections::VecDeque;

/// One operation in an adversarial sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Insert the ball with this id.
    Insert(u64),
    /// Delete the ball with this id (guaranteed present).
    Delete(u64),
}

/// Steady-state churn: fill to `m` balls, then forever delete a uniformly
/// random present ball and insert a fresh id.
///
/// This is the harshest natural oblivious pattern for *stable* placement
/// rules: bins that got unlucky stay unlucky because balls never move.
#[derive(Clone, Debug)]
pub struct ChurnAdversary {
    rng: CounterRng,
    present: Vec<u64>,
    next_id: u64,
    m: usize,
}

impl ChurnAdversary {
    /// Creates a churn adversary maintaining `m` balls.
    pub fn new(seed: u64, m: usize) -> Self {
        Self {
            rng: CounterRng::new(seed, 0xC4A2),
            present: Vec::with_capacity(m),
            next_id: 0,
            m,
        }
    }

    /// Produces the next operation.
    pub fn next_op(&mut self) -> Op {
        if self.present.len() < self.m {
            let id = self.next_id;
            self.next_id += 1;
            self.present.push(id);
            Op::Insert(id)
        } else {
            let victim_idx = self.rng.next_below(self.present.len() as u64) as usize;
            let victim = self.present.swap_remove(victim_idx);
            Op::Delete(victim)
        }
    }

    /// Number of balls the adversary believes are present.
    pub fn live(&self) -> usize {
        self.present.len()
    }
}

/// Sliding-window (FIFO) churn: after filling to `m` balls, every insertion
/// is preceded by deleting the *oldest* ball. Models an LRU-like active set
/// drifting through the address space — the RAM-replacement pattern most
/// relevant to the paper's application.
#[derive(Clone, Debug)]
pub struct SlidingWindowAdversary {
    window: VecDeque<u64>,
    next_id: u64,
    m: usize,
}

impl SlidingWindowAdversary {
    /// Creates a sliding-window adversary with window size `m`.
    pub fn new(m: usize) -> Self {
        Self {
            window: VecDeque::with_capacity(m),
            next_id: 0,
            m,
        }
    }

    /// Produces the next operation.
    pub fn next_op(&mut self) -> Op {
        if self.window.len() < self.m {
            let id = self.next_id;
            self.next_id += 1;
            self.window.push_back(id);
            Op::Insert(id)
        } else {
            // atp-lint: allow(unwrap-policy, reason = "invariant: the window is refilled before each pop, so it cannot be empty here")
            let victim = self.window.pop_front().expect("window nonempty");
            Op::Delete(victim)
        }
    }
}

/// Applies `ops` operations from an adversary closure to a game.
pub fn drive(game: &mut Game, ops: u64, mut next: impl FnMut() -> Op) {
    for _ in 0..ops {
        match next() {
            Op::Insert(id) => {
                game.insert(id);
            }
            Op::Delete(id) => {
                // atp-lint: allow(unwrap-policy, reason = "invariant: the adversary only removes ids it previously inserted")
                game.remove(id).expect("adversary deleted an absent ball");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::Rule;

    #[test]
    fn churn_maintains_m_balls() {
        let mut adv = ChurnAdversary::new(1, 100);
        let mut game = Game::new(2, 10, Rule::OneChoice);
        drive(&mut game, 1000, || adv.next_op());
        // After warmup, population alternates between m-1 and m.
        assert!(game.len() >= 99 && game.len() <= 100, "len={}", game.len());
    }

    #[test]
    fn sliding_window_is_fifo() {
        let mut adv = SlidingWindowAdversary::new(3);
        let ops: Vec<Op> = (0..8).map(|_| adv.next_op()).collect();
        assert_eq!(
            ops,
            vec![
                Op::Insert(0),
                Op::Insert(1),
                Op::Insert(2),
                Op::Delete(0),
                Op::Insert(3),
                Op::Delete(1),
                Op::Insert(4),
                Op::Delete(2),
            ]
        );
    }

    #[test]
    fn adversaries_are_oblivious_to_game_seed() {
        // The op sequence must be identical regardless of the game's seed.
        let mut a1 = ChurnAdversary::new(7, 50);
        let mut a2 = ChurnAdversary::new(7, 50);
        for _ in 0..500 {
            assert_eq!(a1.next_op(), a2.next_op());
        }
    }

    #[test]
    fn drive_applies_all_ops() {
        let mut adv = SlidingWindowAdversary::new(10);
        let mut game = Game::new(5, 4, Rule::Iceberg { front_cap: 4 });
        drive(&mut game, 100, || adv.next_op());
        assert_eq!(game.stats().inserts + game.stats().deletes, 100);
        assert_eq!(game.len(), 10);
    }
}

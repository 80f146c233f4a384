//! Answer checking, outside every timed span.
//!
//! Answers are reduced to order-sensitive fingerprints as they arrive, so a
//! run can check every answer without keeping large collected results in
//! memory. After the timed phase the same plans run solo under
//! `BatchStrategy::Sequential` and the fingerprints are compared.

use wazi_core::{BatchStrategy, EngineError, Query, QueryEngine, QueryOutput, SpatialIndex};
use wazi_geom::Point;

const PRIME: u64 = 0x0000_0100_0000_01B3;

fn mix(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(PRIME).rotate_left(29)
}

fn mix_points(mut hash: u64, points: &[Point]) -> u64 {
    for p in points {
        hash = mix(mix(hash, p.x.to_bits()), p.y.to_bits());
    }
    mix(hash, points.len() as u64)
}

/// Order-sensitive fingerprint of one answer: its variant and every value,
/// bit for bit.
pub fn fingerprint(output: &QueryOutput) -> u64 {
    let seed = 0xCBF2_9CE4_8422_2325;
    match output {
        QueryOutput::Points(points) => mix_points(mix(seed, 1), points),
        QueryOutput::Count(n) => mix(mix(seed, 2), *n),
        QueryOutput::Streamed(n) => mix(mix(seed, 3), *n),
        QueryOutput::Found(found) => mix(mix(seed, 4), u64::from(*found)),
        QueryOutput::Neighbors(points) => mix_points(mix(seed, 5), points),
    }
}

/// The answer with collected points sorted, for comparing two different
/// indexes over the same point set, which may list equal answers in
/// different orders.
pub fn canonical(output: &QueryOutput) -> QueryOutput {
    let sorted = |points: &[Point]| {
        let mut points = points.to_vec();
        points.sort_by_key(|p| (p.x.to_bits(), p.y.to_bits()));
        points
    };
    match output {
        QueryOutput::Points(points) => QueryOutput::Points(sorted(points)),
        QueryOutput::Neighbors(points) => QueryOutput::Neighbors(sorted(points)),
        other => other.clone(),
    }
}

/// The answers to `plans` executed solo, in order, under
/// `BatchStrategy::Sequential` on `index`.
pub fn solo_answers(
    index: &dyn SpatialIndex,
    plans: &[Query],
) -> Result<Vec<QueryOutput>, EngineError> {
    let report = QueryEngine::new(index)
        .with_strategy(BatchStrategy::Sequential)
        .execute_batch(plans)?;
    Ok(report.reports.into_iter().map(|r| r.output).collect())
}

/// Fingerprints of the solo sequential answers to `plans` on `index`.
pub fn reference_fingerprints(
    index: &dyn SpatialIndex,
    plans: &[Query],
) -> Result<Vec<u64>, EngineError> {
    Ok(solo_answers(index, plans)?
        .iter()
        .map(fingerprint)
        .collect())
}

/// Number of recorded `(plan index, fingerprint)` answers that differ from
/// the reference fingerprint of their plan.
pub fn mismatches(recorded: &[(usize, u64)], reference: &[u64]) -> u64 {
    recorded
        .iter()
        .filter(|&&(plan, print)| reference.get(plan) != Some(&print))
        .count() as u64
}

/// Flips one bit of the first reference fingerprint, to show the check
/// fails a run whose answers disagree with it.
pub fn corrupt(reference: &mut [u64]) {
    if let Some(first) = reference.first_mut() {
        *first ^= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wazi_core::ZIndexBuilder;
    use wazi_workload::{generate_dataset_with_seed, generate_mixed_batch, Region};

    #[test]
    fn fingerprints_tell_answers_apart() {
        let a = QueryOutput::Points(vec![Point::new(0.1, 0.2), Point::new(0.3, 0.4)]);
        let b = QueryOutput::Points(vec![Point::new(0.3, 0.4), Point::new(0.1, 0.2)]);
        assert_ne!(fingerprint(&a), fingerprint(&b), "order matters");
        assert_eq!(fingerprint(&canonical(&a)), fingerprint(&canonical(&b)));
        assert_ne!(
            fingerprint(&QueryOutput::Count(3)),
            fingerprint(&QueryOutput::Streamed(3))
        );
        assert_ne!(
            fingerprint(&QueryOutput::Found(true)),
            fingerprint(&QueryOutput::Found(false))
        );
    }

    #[test]
    fn the_check_catches_a_corrupted_reference() {
        let points = generate_dataset_with_seed(Region::NewYork, 3_000, 5);
        let index = ZIndexBuilder::wazi().build(points, &[]);
        let plans = generate_mixed_batch(Region::NewYork, 64, 0.001, 6);
        let answers = QueryEngine::new(&index).execute_batch(&plans).unwrap();
        let recorded: Vec<(usize, u64)> = answers
            .reports
            .iter()
            .enumerate()
            .map(|(i, r)| (i, fingerprint(&r.output)))
            .collect();
        let mut reference = reference_fingerprints(&index, &plans).unwrap();
        assert_eq!(mismatches(&recorded, &reference), 0);
        corrupt(&mut reference);
        assert_eq!(mismatches(&recorded, &reference), 1);
        // A plan index without a reference answer is a mismatch too.
        assert_eq!(mismatches(&[(plans.len(), 0)], &reference), 1);
    }
}

//! Design points and Pareto/EDP analysis (absorbed from `core::dse`).
//!
//! The paper's motivation is "evaluating energy-performance trade-offs
//! among different candidate custom instructions" inside an ASIP design
//! cycle — possible only because macro-model estimation needs no synthesis
//! per candidate. This module holds the evaluated-point vocabulary: a
//! [`DesignPoint`] in the energy/cycles plane, the Pareto front over a set
//! of points, and an energy-delay-product ranking.

use emx_rtlpower::Energy;

/// An evaluated design point.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// Display name.
    pub name: String,
    /// Macro-model energy estimate.
    pub energy: Energy,
    /// Execution cycles (from the ISS).
    pub cycles: u64,
}

impl DesignPoint {
    /// Energy–delay product in pJ·cycles (lower is better).
    pub fn edp(&self) -> f64 {
        self.energy.as_picojoules() * self.cycles as f64
    }
}

/// Indices of the energy/performance Pareto-optimal points, sorted by
/// ascending cycle count.
///
/// A point is Pareto-optimal if no other point is at least as good in both
/// dimensions and strictly better in one.
pub fn pareto_front(points: &[DesignPoint]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_by(|&a, &b| {
        points[a].cycles.cmp(&points[b].cycles).then(
            points[a]
                .energy
                .as_picojoules()
                .total_cmp(&points[b].energy.as_picojoules()),
        )
    });
    let mut front = Vec::new();
    let mut best_energy = f64::INFINITY;
    for &i in &order {
        let e = points[i].energy.as_picojoules();
        if e < best_energy {
            front.push(i);
            best_energy = e;
        }
    }
    front
}

/// Indices sorted by ascending energy–delay product.
pub fn rank_by_edp(points: &[DesignPoint]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_by(|&a, &b| points[a].edp().total_cmp(&points[b].edp()));
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(name: &str, pj: f64, cycles: u64) -> DesignPoint {
        DesignPoint {
            name: name.to_owned(),
            energy: Energy::from_picojoules(pj),
            cycles,
        }
    }

    #[test]
    fn pareto_front_filters_dominated_points() {
        let points = vec![
            point("slow_cheap", 10.0, 100),
            point("fast_costly", 30.0, 20),
            point("dominated", 40.0, 120), // worse than slow_cheap in both
            point("balanced", 15.0, 50),
        ];
        let front = pareto_front(&points);
        let names: Vec<&str> = front.iter().map(|&i| points[i].name.as_str()).collect();
        assert_eq!(names, vec!["fast_costly", "balanced", "slow_cheap"]);
    }

    #[test]
    fn pareto_front_handles_ties_and_empty() {
        assert!(pareto_front(&[]).is_empty());
        let points = vec![point("a", 10.0, 50), point("b", 10.0, 50)];
        // Equal points: exactly one survives.
        assert_eq!(pareto_front(&points).len(), 1);
    }

    #[test]
    fn edp_ranking() {
        let points = vec![
            point("a", 10.0, 100), // edp 1000
            point("b", 30.0, 20),  // edp 600
            point("c", 5.0, 300),  // edp 1500
        ];
        let ranked = rank_by_edp(&points);
        let names: Vec<&str> = ranked.iter().map(|&i| points[i].name.as_str()).collect();
        assert_eq!(names, vec!["b", "a", "c"]);
        assert_eq!(points[0].edp(), 1000.0);
    }
}
